/** @file Knob-catalog tests (core/knobs.hh): every cataloged key must
 *  round-trip through the applyKnob dispatch (so docs/KNOBS.md never
 *  documents a knob the code stopped accepting), and the rendered
 *  document must be deterministic and cover every namespace. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "core/knobs.hh"
#include "core/scenario.hh"
#include "core/system.hh"

using namespace smartsage;
using namespace smartsage::core;

namespace
{

/** Full key with the tenant-index placeholder made concrete. */
std::string
concreteKey(const KnobNamespaceDoc &ns, const KnobDoc &k)
{
    std::string key = ns.prefix + k.key;
    std::string::size_type pos = key.find("<i>");
    if (pos != std::string::npos)
        key.replace(pos, 3, "0");
    return key;
}

} // namespace

TEST(KnobCatalog, EveryCatalogedKeyRoundTripsThroughApplyKnob)
{
    // A cataloged key the dispatch no longer accepts is a stale doc
    // row; applying its sample value must succeed on a fresh config.
    for (const KnobNamespaceDoc &ns : knobCatalog()) {
        for (const KnobDoc &k : ns.knobs) {
            SystemConfig config;
            KnobSetting setting{concreteKey(ns, k), k.sample};
            EXPECT_TRUE(applyKnob(config, setting))
                << "catalog key rejected by applyKnob: " << setting.key;
        }
    }
}

TEST(KnobCatalog, KeysAreUniqueAndNamespacesNonEmpty)
{
    std::set<std::string> seen;
    for (const KnobNamespaceDoc &ns : knobCatalog()) {
        EXPECT_FALSE(ns.knobs.empty()) << ns.prefix;
        EXPECT_FALSE(ns.title.empty()) << ns.prefix;
        EXPECT_FALSE(ns.owner.empty()) << ns.prefix;
        for (const KnobDoc &k : ns.knobs) {
            EXPECT_TRUE(seen.insert(ns.prefix + k.key).second)
                << "duplicate catalog key: " << ns.prefix << k.key;
            EXPECT_FALSE(k.type.empty()) << ns.prefix << k.key;
            EXPECT_FALSE(k.desc.empty()) << ns.prefix << k.key;
        }
    }
}

TEST(KnobCatalog, CatalogCoversEveryDispatchNamespace)
{
    std::set<std::string> prefixes;
    for (const KnobNamespaceDoc &ns : knobCatalog())
        prefixes.insert(ns.prefix);
    // The applyKnob dispatch's builtin namespaces plus the top level
    // plus the registry-claimed backend namespaces.
    for (const char *required :
         {"ssd.", "ssd.flash.", "isp.", "fpga.", "host.", "fault.",
          "retry.", "ckpt.", "sched.", "admit.", "tenant.",
          "cache.", "multi-ssd.", "tiered.", "net.", "part.", ""})
        EXPECT_TRUE(prefixes.count(required))
            << "namespace missing from catalog: '" << required << "'";
}

TEST(KnobCatalog, KernelDispatchIsNotAKnob)
{
    // The kernel flavor is a test/bench pin (gnn::ScopedKernelDispatch),
    // not configuration: `kernel.dispatch` is an unknown key like any
    // other, and the catalog documents no `kernel.` namespace.
    SystemConfig config;
    EXPECT_FALSE(applyKnob(config, {"kernel.dispatch", 1}));
    EXPECT_FALSE(applyKnob(config, {"kernel.no_such_knob", 1}));
    for (const KnobNamespaceDoc &ns : knobCatalog())
        EXPECT_NE(ns.prefix, "kernel.");
}

TEST(KnobCatalog, CacheNamespaceKnobCountIsPinned)
{
    // The `cache.` namespace gained the miss-path knob blocks
    // (`cache.mshr.*`, `cache.prefetch.*`). Pin the count so adding or
    // dropping a knob there is a conscious doc-regenerating change,
    // not silent docs/KNOBS.md drift.
    for (const KnobNamespaceDoc &ns : knobCatalog()) {
        if (ns.prefix != "cache.")
            continue;
        EXPECT_EQ(ns.knobs.size(), 10u)
            << "cache.* knob count changed: update this pin AND "
               "regenerate docs/KNOBS.md (design_space --knobs-doc)";
        std::set<std::string> keys;
        for (const KnobDoc &k : ns.knobs)
            keys.insert(k.key);
        for (const char *required :
             {"mshr.enabled", "mshr.entries", "mshr.waiters",
              "prefetch.enabled", "prefetch.lookahead",
              "prefetch.max_lines"})
            EXPECT_TRUE(keys.count(required))
                << "miss-path knob missing from catalog: cache."
                << required;
        return;
    }
    FAIL() << "cache. namespace missing from the knob catalog";
}

TEST(KnobCatalog, RenderedDocIsDeterministicAndComplete)
{
    std::ostringstream a, b;
    writeKnobsDoc(a);
    writeKnobsDoc(b);
    std::string doc = a.str();
    EXPECT_EQ(doc, b.str());

    // Generated-file banner (what the CI drift gate regenerates).
    EXPECT_NE(doc.find("Generated by"), std::string::npos);
    EXPECT_NE(doc.find("--knobs-doc"), std::string::npos);
    // Every cataloged knob appears as a table row.
    for (const KnobNamespaceDoc &ns : knobCatalog())
        for (const KnobDoc &k : ns.knobs)
            EXPECT_NE(doc.find("`" + ns.prefix + k.key + "`"),
                      std::string::npos)
                << ns.prefix << k.key;
}
