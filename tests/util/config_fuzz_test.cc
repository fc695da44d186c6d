/**
 * @file
 * Fuzz-style negative tests for Config parsing: seeded random
 * malformed inputs must land in the documented error taxonomy (the
 * specific fatal() message for each failure class), never in a crash
 * or a silently-accepted value.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/config.hh"
#include "util/rng.hh"

using namespace cchunter;

namespace
{

/** Run fn and return the fatal() message it raised ("" if none). */
template <typename Fn>
std::string
fatalMessageOf(Fn&& fn)
{
    try {
        fn();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

Config
parse(const std::vector<std::string>& args)
{
    std::vector<const char*> argv{"prog"};
    for (const std::string& a : args)
        argv.push_back(a.c_str());
    return Config::fromArgs(static_cast<int>(argv.size()),
                            argv.data());
}

/** Seeded pile of printable garbage without '=' or digits. */
std::string
garbageToken(Rng& rng)
{
    static const std::string alphabet =
        "abcXYZ_!@#$%^&*()[]{};:,.<>?/|\\~` ";
    std::string tok;
    const std::size_t len = 1 + rng.nextBelow(12);
    for (std::size_t i = 0; i < len; ++i)
        tok += alphabet[rng.nextBelow(alphabet.size())];
    return tok;
}

} // namespace

TEST(ConfigFuzzTest, DuplicateKeysNameTheKeyAndBothValues)
{
    const std::string msg = fatalMessageOf(
        [] { parse({"quanta=4", "seed=1", "quanta=8"}); });
    EXPECT_NE(msg.find("duplicate config key 'quanta'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("quanta=8"), std::string::npos) << msg;
}

TEST(ConfigFuzzTest, SeededGarbageTokensAreKeyValueErrors)
{
    Rng rng(31337);
    for (int round = 0; round < 50; ++round) {
        std::string tok = garbageToken(rng);
        if (tok.find('=') != std::string::npos)
            continue;
        const std::string msg =
            fatalMessageOf([&] { parse({tok}); });
        EXPECT_NE(msg.find("expected key=value argument"),
                  std::string::npos)
            << "token '" << tok << "' got: " << msg;
    }
}

TEST(ConfigFuzzTest, LeadingEqualsIsAKeyValueError)
{
    const std::string msg =
        fatalMessageOf([] { parse({"=value"}); });
    EXPECT_NE(msg.find("expected key=value argument"),
              std::string::npos)
        << msg;
}

TEST(ConfigFuzzTest, MalformedNumbersNameTheTaxonomyClass)
{
    Rng rng(99);
    for (int round = 0; round < 50; ++round) {
        const std::string junk = garbageToken(rng);
        Config cfg;
        cfg.set("k", junk);
        EXPECT_NE(fatalMessageOf([&] { cfg.getInt("k"); })
                      .find("is not an integer"),
                  std::string::npos)
            << "value '" << junk << "'";
        EXPECT_NE(fatalMessageOf([&] { cfg.getUint("k"); })
                      .find("is not an unsigned integer"),
                  std::string::npos)
            << "value '" << junk << "'";
        EXPECT_NE(fatalMessageOf([&] { cfg.getDouble("k"); })
                      .find("is not a number"),
                  std::string::npos)
            << "value '" << junk << "'";
    }
}

TEST(ConfigFuzzTest, TrailingJunkOnNumbersIsRejected)
{
    Config cfg;
    cfg.set("n", std::string("12abc"));
    EXPECT_NE(fatalMessageOf([&] { cfg.getInt("n"); })
                  .find("is not an integer: '12abc'"),
              std::string::npos);
    cfg.set("d", std::string("3.14xyz"));
    EXPECT_NE(fatalMessageOf([&] { cfg.getDouble("d"); })
                  .find("is not a number: '3.14xyz'"),
              std::string::npos);
}

TEST(ConfigFuzzTest, BadBooleansListTheOffendingValue)
{
    for (const char* bad : {"maybe", "2", "TRUE?", "yess", "offf"}) {
        Config cfg;
        // A const char* would pick set(key, bool).
        cfg.set("flag", std::string(bad));
        const std::string msg =
            fatalMessageOf([&] { cfg.getBool("flag"); });
        EXPECT_NE(msg.find("is not a boolean: '" + std::string(bad) + "'"),
                  std::string::npos)
            << msg;
    }
}

TEST(ConfigFuzzTest, AcceptedBooleanSpellingsStayAccepted)
{
    // The negative taxonomy above is only trustworthy if the accepted
    // set is pinned too.
    Config cfg;
    for (const char* yes : {"true", "1", "yes", "on"}) {
        cfg.set("b", std::string(yes));
        EXPECT_TRUE(cfg.getBool("b")) << yes;
    }
    for (const char* no : {"false", "0", "no", "off"}) {
        cfg.set("b", std::string(no));
        EXPECT_FALSE(cfg.getBool("b")) << no;
    }
}
