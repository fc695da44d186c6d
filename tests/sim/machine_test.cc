#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "sim/machine.hh"

namespace cchunter
{
namespace
{

/** Workload executing a fixed script of actions, then halting. */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::vector<Action> script)
        : script_(std::move(script))
    {
    }

    Action
    nextAction(const ExecView& view) override
    {
        views.push_back(view);
        if (next_ >= script_.size())
            return Action::halt();
        return script_[next_++];
    }

    std::string name() const override { return "scripted"; }

    std::vector<ExecView> views;

  private:
    std::vector<Action> script_;
    std::size_t next_ = 0;
};

/** Workload spinning on compute forever. */
class SpinWorkload : public Workload
{
  public:
    explicit SpinWorkload(Cycles per_action = 100)
        : perAction_(per_action)
    {
    }

    Action
    nextAction(const ExecView&) override
    {
        ++actions;
        return Action::compute(perAction_);
    }

    std::string name() const override { return "spin"; }

    void
    onSchedule(ContextId ctx, Tick) override
    {
        scheduleEvents.push_back(ctx);
    }

    void
    onDeschedule(Tick) override
    {
        ++descheduleEvents;
    }

    std::uint64_t actions = 0;
    std::vector<ContextId> scheduleEvents;
    int descheduleEvents = 0;

  private:
    Cycles perAction_;
};

MachineParams
smallMachine()
{
    MachineParams p;
    p.mem.l1 = CacheGeometry{1024, 2, 64};
    p.mem.l2 = CacheGeometry{4096, 2, 64};
    p.scheduler.quantum = 100000;
    p.switchPenalty = 100;
    return p;
}

TEST(MachineTest, RunsAScriptToCompletion)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<ScriptedWorkload>(std::vector<Action>{
        Action::compute(50), Action::read(0x1000),
        Action::compute(10)});
    auto* raw = wl.get();
    Process& p = m.addProcess(std::move(wl), 0);
    m.run(50000);
    EXPECT_TRUE(p.halted());
    EXPECT_EQ(p.stats().actions, 3u);
    EXPECT_EQ(p.stats().memAccesses, 1u);
    // Views: one per nextAction call (3 actions + halt).
    EXPECT_EQ(raw->views.size(), 4u);
}

TEST(MachineTest, LatencyVisibleToWorkload)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<ScriptedWorkload>(std::vector<Action>{
        Action::compute(77), Action::compute(1)});
    auto* raw = wl.get();
    m.addProcess(std::move(wl), 0);
    m.run(50000);
    ASSERT_GE(raw->views.size(), 2u);
    EXPECT_EQ(raw->views[1].lastLatency, 77u);
}

TEST(MachineTest, MemoryActionsReportHits)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<ScriptedWorkload>(std::vector<Action>{
        Action::read(0x1000), Action::read(0x1000)});
    auto* raw = wl.get();
    m.addProcess(std::move(wl), 0);
    m.run(100000);
    // After the second (hit) access the view says hit.
    EXPECT_TRUE(raw->views[2].lastWasHit);
    // After the first (cold miss) it says miss.
    EXPECT_FALSE(raw->views[1].lastWasHit);
}

TEST(MachineTest, SleepUntilAdvancesToTarget)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<ScriptedWorkload>(std::vector<Action>{
        Action::sleepUntil(7000), Action::compute(1)});
    auto* raw = wl.get();
    m.addProcess(std::move(wl), 0);
    m.run(50000);
    ASSERT_GE(raw->views.size(), 2u);
    EXPECT_GE(raw->views[1].now, 7000u);
}

TEST(MachineTest, PinnedProcessStaysOnContext)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<SpinWorkload>();
    auto* raw = wl.get();
    m.addProcess(std::move(wl), 3);
    m.run(500000); // 5 quanta
    for (ContextId c : raw->scheduleEvents)
        EXPECT_EQ(c, 3);
    EXPECT_EQ(m.runningOn(3)->name(), "spin");
}

TEST(MachineTest, TwoPinnedToSameContextTimeShare)
{
    Machine m(smallMachine());
    auto a = std::make_unique<SpinWorkload>();
    auto b = std::make_unique<SpinWorkload>();
    auto* ra = a.get();
    auto* rb = b.get();
    m.addProcess(std::move(a), 0);
    m.addProcess(std::move(b), 0);
    m.run(1000000); // 10 quanta
    EXPECT_GT(ra->actions, 0u);
    EXPECT_GT(rb->actions, 0u);
    // Neither starves: roughly half the quanta each.
    EXPECT_GT(ra->descheduleEvents, 2);
    EXPECT_GT(rb->descheduleEvents, 2);
}

TEST(MachineTest, FloatingProcessesShareFreeContexts)
{
    MachineParams params = smallMachine();
    Machine m(params);
    std::vector<SpinWorkload*> raw;
    // 10 floating processes on 8 contexts: all must make progress.
    for (int i = 0; i < 10; ++i) {
        auto wl = std::make_unique<SpinWorkload>();
        raw.push_back(wl.get());
        m.addProcess(std::move(wl));
    }
    m.run(params.scheduler.quantum * 20);
    for (auto* wl : raw)
        EXPECT_GT(wl->actions, 0u);
}

TEST(MachineTest, HaltedProcessFreesContext)
{
    Machine m(smallMachine());
    auto done = std::make_unique<ScriptedWorkload>(
        std::vector<Action>{Action::compute(10)});
    m.addProcess(std::move(done), 0);
    auto spin = std::make_unique<SpinWorkload>();
    auto* raw = spin.get();
    m.addProcess(std::move(spin)); // floating
    m.run(m.params().scheduler.quantum * 3);
    // After the scripted process halts, the floating one can use ctx 0
    // (among others); at minimum it must be running somewhere.
    EXPECT_GT(raw->actions, 0u);
}

TEST(MachineTest, QuantumObserverFiresEachQuantum)
{
    Machine m(smallMachine());
    m.addProcess(std::make_unique<SpinWorkload>(), 0);
    std::vector<std::uint64_t> indices;
    m.scheduler().addQuantumObserver(
        [&](std::uint64_t q, Tick) { indices.push_back(q); });
    m.run(m.params().scheduler.quantum * 5 + 10);
    ASSERT_EQ(indices.size(), 5u);
    EXPECT_EQ(indices.front(), 0u);
    EXPECT_EQ(indices.back(), 4u);
}

TEST(MachineTest, DividerActionUsesCoreUnit)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<ScriptedWorkload>(std::vector<Action>{
        Action::divideBatch(10)});
    m.addProcess(std::move(wl), 2); // core 1
    m.run(100000);
    EXPECT_EQ(m.divider(1).totalOps(), 10u);
    EXPECT_EQ(m.divider(0).totalOps(), 0u);
}

TEST(MachineTest, LockedAccessCountsBusLock)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<ScriptedWorkload>(std::vector<Action>{
        Action::lockedAccess(0x3fc0)});
    Process& p = m.addProcess(std::move(wl), 0);
    m.run(100000);
    EXPECT_EQ(p.stats().busLocks, 1u);
    EXPECT_EQ(m.mem().bus().locks(), 1u);
}

TEST(MachineTest, StatsAccumulate)
{
    Machine m(smallMachine());
    auto wl = std::make_unique<SpinWorkload>(1000);
    m.addProcess(std::move(wl), 0);
    Process* p = nullptr;
    p = m.runningOn(0) ? m.runningOn(0) : nullptr;
    m.run(100000);
    p = m.scheduler().processes().front().get();
    EXPECT_GT(p->stats().actions, 50u);
    EXPECT_GT(p->stats().busyCycles, 50000u);
}

TEST(MachineTest, MigrationMovesFloatingProcesses)
{
    MachineParams params = smallMachine();
    params.scheduler.migrate = true;
    params.scheduler.seed = 7;
    Machine m(params);
    auto wl = std::make_unique<SpinWorkload>();
    auto* raw = wl.get();
    m.addProcess(std::move(wl));
    // A second floating process so reassignment happens.
    m.addProcess(std::make_unique<SpinWorkload>());
    m.run(params.scheduler.quantum * 40);
    // Across 40 quanta with random placement, at least two distinct
    // contexts must have been used.
    bool moved = false;
    for (ContextId c : raw->scheduleEvents)
        if (c != raw->scheduleEvents.front())
            moved = true;
    EXPECT_TRUE(moved);
}

TEST(MachineTest, ConcurrentMachinesGetUniqueIncreasingPids)
{
    // Shard workers build machines on several threads at once.  The
    // daemon labels a conflict by comparing the two pids of one
    // machine, so pids must never repeat or run backwards there.
    constexpr int threads = 4;
    constexpr int machinesPerThread = 8;
    constexpr int processesPerMachine = 32;
    std::vector<std::vector<ProcessId>> pids(threads * machinesPerThread);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&pids, t] {
            for (int k = 0; k < machinesPerThread; ++k) {
                Machine m(smallMachine());
                auto& mine = pids[t * machinesPerThread + k];
                for (int p = 0; p < processesPerMachine; ++p)
                    mine.push_back(
                        m.addProcess(std::make_unique<SpinWorkload>())
                            .pid());
            }
        });
    }
    for (auto& w : workers)
        w.join();

    std::set<ProcessId> all;
    for (const auto& mine : pids) {
        for (std::size_t i = 1; i < mine.size(); ++i)
            EXPECT_LT(mine[i - 1], mine[i]);
        all.insert(mine.begin(), mine.end());
    }
    EXPECT_EQ(all.size(),
              std::size_t{threads * machinesPerThread *
                          processesPerMachine});
}

TEST(MachineTest, ConcurrentMachinesRunThroughQuantumBoundaries)
{
    // Shard workers run whole machines side by side.  Every quantum
    // boundary re-assigns contexts and checks the trace gate, so the
    // gate's global state is shared across threads; each machine must
    // still simulate exactly what it would alone.
    constexpr int threads = 4;
    std::vector<std::uint64_t> actions(threads);
    std::vector<std::uint64_t> quanta(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&actions, &quanta, t] {
            Machine m(smallMachine());
            auto spin = std::make_unique<SpinWorkload>();
            auto* raw = spin.get();
            m.addProcess(std::move(spin), 0);
            m.addProcess(std::make_unique<SpinWorkload>(), 1);
            m.addProcess(std::make_unique<SpinWorkload>());
            m.runQuanta(2);
            actions[t] = raw->actions;
            quanta[t] = m.scheduler().quantaElapsed();
        });
    }
    for (auto& w : workers)
        w.join();

    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(quanta[t], 2u);
        EXPECT_EQ(actions[t], actions[0]);
    }
    EXPECT_GT(actions[0], 1000u);
}

TEST(MachineTest, PinnedToInvalidContextThrows)
{
    Machine m(smallMachine());
    EXPECT_ANY_THROW(
        m.addProcess(std::make_unique<SpinWorkload>(), 100));
}

} // namespace
} // namespace cchunter
