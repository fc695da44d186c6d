#include "faults/fault_plan.hh"

#include <sstream>

#include "util/logging.hh"

namespace cchunter
{

bool
FaultPlan::enabled() const
{
    return dropQuantumRate > 0.0 || duplicateQuantumRate > 0.0 ||
           truncateBatchRate > 0.0 || reorderBatchRate > 0.0 ||
           corruptContextRate > 0.0 || bloomAliasRate > 0.0 ||
           saturatePaperWidths;
}

void
FaultPlan::validate() const
{
    auto check = [](const char* name, double rate) {
        if (rate < 0.0 || rate > 1.0)
            fatal("FaultPlan: ", name, " = ", rate,
                  " outside [0, 1]");
    };
    check("drop_quantum", dropQuantumRate);
    check("dup_quantum", duplicateQuantumRate);
    check("truncate_batch", truncateBatchRate);
    check("reorder_batch", reorderBatchRate);
    check("corrupt_context", corruptContextRate);
    check("bloom_alias", bloomAliasRate);
}

FaultPlan
FaultPlan::fromConfig(const Config& cfg)
{
    // toConfig echoes exactly the keys read below.  Any other faults.*
    // key is retired or misspelt and must not leave the run silently
    // clean.
    Config known;
    FaultPlan{}.toConfig(known);
    for (const std::string& key : cfg.keys()) {
        if (key.rfind("faults.", 0) != 0 || known.has(key))
            continue;
        std::string reads;
        for (const std::string& k : known.keys())
            reads += (reads.empty() ? "" : ", ") + k;
        fatal("FaultPlan: unknown key '", key, "' (reads: ", reads, ")");
    }
    FaultPlan plan;
    plan.seed = cfg.getUint("faults.seed", plan.seed);
    plan.dropQuantumRate =
        cfg.getDouble("faults.drop_quantum", plan.dropQuantumRate);
    plan.duplicateQuantumRate =
        cfg.getDouble("faults.dup_quantum", plan.duplicateQuantumRate);
    plan.truncateBatchRate =
        cfg.getDouble("faults.truncate_batch", plan.truncateBatchRate);
    plan.reorderBatchRate =
        cfg.getDouble("faults.reorder_batch", plan.reorderBatchRate);
    plan.corruptContextRate =
        cfg.getDouble("faults.corrupt_context",
                      plan.corruptContextRate);
    plan.bloomAliasRate =
        cfg.getDouble("faults.bloom_alias", plan.bloomAliasRate);
    plan.saturatePaperWidths =
        cfg.getBool("faults.saturate", plan.saturatePaperWidths);
    plan.validate();
    return plan;
}

void
FaultPlan::toConfig(Config& cfg) const
{
    cfg.set("faults.seed", static_cast<std::int64_t>(seed));
    cfg.set("faults.drop_quantum", dropQuantumRate);
    cfg.set("faults.dup_quantum", duplicateQuantumRate);
    cfg.set("faults.truncate_batch", truncateBatchRate);
    cfg.set("faults.reorder_batch", reorderBatchRate);
    cfg.set("faults.corrupt_context", corruptContextRate);
    cfg.set("faults.bloom_alias", bloomAliasRate);
    cfg.set("faults.saturate", saturatePaperWidths);
}

std::string
FaultPlan::summary() const
{
    if (!enabled())
        return "no faults";
    std::ostringstream os;
    os << "seed=" << seed;
    auto rate = [&os](const char* name, double r) {
        if (r > 0.0)
            os << ' ' << name << '=' << r;
    };
    rate("drop_quantum", dropQuantumRate);
    rate("dup_quantum", duplicateQuantumRate);
    rate("truncate_batch", truncateBatchRate);
    rate("reorder_batch", reorderBatchRate);
    rate("corrupt_context", corruptContextRate);
    rate("bloom_alias", bloomAliasRate);
    if (saturatePaperWidths)
        os << " saturate=16bit";
    return os.str();
}

} // namespace cchunter
