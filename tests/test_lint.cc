/** @file Protocol-spec lint tests: the shipped spec must be clean
 *  (golden-file check on the JSON report), and a seeded defect of
 *  each class must be caught by the matching pass. */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/cache/line_state.hh"
#include "src/mem/directory.hh"
#include "src/protocol/policy.hh"
#include "src/verify/lint.hh"
#include "src/verify/liveness.hh"
#include "src/verify/mdg.hh"
#include "src/verify/spec.hh"

using namespace pcsim;
using namespace pcsim::verify;

namespace
{

bool
hasFinding(const LintReport &r, const std::string &kind,
           const std::string &state, const std::string &event)
{
    return std::any_of(r.findings.begin(), r.findings.end(),
                       [&](const LintFinding &f) {
                           return f.kind == kind && f.state == state &&
                                  f.event == event;
                       });
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(Lint, ShippedSpecIsClean)
{
    const LintReport r = lintSpec(protocolSpec());
    for (const auto &f : r.findings) {
        ADD_FAILURE() << f.kind << ": " << f.ctrl << " " << f.state
                      << " x " << f.event << ": " << f.detail;
    }
    EXPECT_TRUE(r.clean());
}

TEST(Lint, ShippedSpecMatchesModel)
{
    const LintReport r =
        lintSpecWithModel(protocolSpec(), McCheckSet::MesiDele);
    for (const auto &f : r.findings) {
        ADD_FAILURE() << f.kind << ": " << f.ctrl << " " << f.state
                      << " x " << f.event << ": " << f.detail;
    }
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.mcConfigs, 5u);
    EXPECT_GT(r.mcStates, 100'000u);
    EXPECT_GT(r.mcObserved, 50u);
}

TEST(Lint, GoldenJsonReport)
{
    // The serialized static-lint report of the full-protocol spec is a
    // committed artifact: regenerate tests/golden/lint_clean.json when
    // the spec grows (build/apps/pcsim lint --policy
    // delegation-updates --no-mc --json tests/golden/lint_clean.json).
    const std::string got =
        lintPolicies(LintPass::Spec, {ProtocolKind::DelegationUpdates},
                     /*model_check=*/false)
            .toJson()
            .dump(2) +
        "\n";
    const std::string want =
        readFile(std::string(PCSIM_SOURCE_DIR) +
                 "/tests/golden/lint_clean.json");
    ASSERT_FALSE(want.empty()) << "golden file missing";
    EXPECT_EQ(got, want);
}

TEST(Lint, DetectsUnhandledPair)
{
    TransitionSpec spec = buildProtocolSpec();
    ASSERT_TRUE(spec.removeRule(Ctrl::Producer, prodExcl,
                                PEvent::LocalFlush));
    const LintReport r = lintSpec(spec);
    EXPECT_EQ(r.findings.size(), 1u);
    EXPECT_TRUE(hasFinding(r, "unhandled", "Excl", "LocalFlush"));
}

TEST(Lint, DetectsDuplicateRules)
{
    TransitionSpec spec = buildProtocolSpec();
    TransitionRule dup;
    dup.ctrl = Ctrl::Cache;
    dup.state = static_cast<StateId>(LineState::Invalid);
    dup.event = PEvent::CpuLoad;
    dup.next = {static_cast<StateId>(LineState::Invalid)};
    spec.add(dup);
    const LintReport r = lintSpec(spec);
    EXPECT_EQ(r.findings.size(), 1u);
    EXPECT_TRUE(hasFinding(r, "ambiguous", "I", "CpuLoad"));
}

TEST(Lint, DetectsRuleImpossibleConflict)
{
    TransitionSpec spec = buildProtocolSpec();
    spec.declareImpossible(Ctrl::Cache,
                           static_cast<StateId>(LineState::Invalid),
                           PEvent::CpuLoad, "seeded conflict");
    const LintReport r = lintSpec(spec);
    EXPECT_EQ(r.findings.size(), 1u);
    EXPECT_TRUE(hasFinding(r, "ambiguous", "I", "CpuLoad"));
}

TEST(Lint, DetectsUnreachableState)
{
    TransitionSpec spec = buildProtocolSpec();
    // LineState::Exclusive exists in the enum but the protocol never
    // grants it; declaring it without any inbound rule must flag it.
    spec.declareState(Ctrl::Cache,
                      static_cast<StateId>(LineState::Exclusive),
                      "E");
    const LintReport r = lintSpec(spec);
    EXPECT_TRUE(hasFinding(r, "unreachable", "E", ""));
    // The freshly declared state also lacks rules for every relevant
    // event; each of those is an unhandled finding.
    EXPECT_TRUE(hasFinding(r, "unhandled", "E", "CpuLoad"));
}

TEST(Lint, DetectsModelMismatch)
{
    TransitionSpec spec = buildProtocolSpec();
    // Break the directory's ReqShared rule: pretend Unowned can only
    // stay Unowned. The model takes Unowned -> Shared on the first
    // read, which the cross-check must flag.
    TransitionRule *rule =
        spec.findMutable(Ctrl::Dir,
                         static_cast<StateId>(DirState::Unowned),
                         PEvent::ReqShared);
    ASSERT_NE(rule, nullptr);
    rule->next = {static_cast<StateId>(DirState::Unowned)};
    ASSERT_TRUE(lintSpec(spec).clean()) << "defect must be mc-only";
    const LintReport r = lintSpecWithModel(spec, McCheckSet::MesiDele);
    EXPECT_TRUE(hasFinding(r, "mc-mismatch", "Unowned", "ReqShared"));
}

TEST(Lint, CoverageFoldsObservedCounts)
{
    const TransitionSpec &spec = protocolSpec();
    std::vector<TransitionCount> observed;
    TransitionCount t;
    t.ctrl = static_cast<std::uint8_t>(Ctrl::Cache);
    t.state = static_cast<std::uint8_t>(LineState::Invalid);
    t.event = static_cast<std::uint8_t>(PEvent::CpuLoad);
    t.next = static_cast<std::uint8_t>(LineState::Shared);
    t.count = 7;
    observed.push_back(t);
    observed.push_back(t); // second run of the same tuple merges

    const CoverageReport r = computeCoverage(spec, observed);
    EXPECT_GT(r.legal, 100u);
    EXPECT_EQ(r.exercised, 1u);
    bool found = false;
    for (const auto &row : r.rows) {
        if (row.ctrl == Ctrl::Cache &&
            row.state == static_cast<StateId>(LineState::Invalid) &&
            row.event == PEvent::CpuLoad &&
            row.next == static_cast<StateId>(LineState::Shared)) {
            found = true;
            EXPECT_EQ(row.count, 14u);
        } else {
            EXPECT_EQ(row.count, 0u);
        }
    }
    EXPECT_TRUE(found);

    const std::string csv = coverageToCsv(spec, r);
    EXPECT_NE(csv.find("cache,I,CpuLoad,S,14"), std::string::npos);
}

TEST(Lint, CsvEscapesAndLists)
{
    TransitionSpec spec = buildProtocolSpec();
    ASSERT_TRUE(spec.removeRule(Ctrl::Producer, prodExcl,
                                PEvent::LocalFlush));
    // The CSV of a lint run whose delegation-updates spec lost a rule.
    const LintRun run{
        LintPass::Spec,
        {{ProtocolKind::DelegationUpdates,
          std::make_shared<const LintReport>(lintSpec(spec)), nullptr,
          nullptr}}};
    const std::string csv = run.toCsv();
    EXPECT_EQ(csv.rfind("policy,kind,controller,state,event,detail\n", 0),
              0u);
    // The detail holds a comma, so it is quoted.
    EXPECT_NE(csv.find("\ndelegation-updates,unhandled,producer,Excl,"
                       "LocalFlush,\"no rule and no impossible "
                       "declaration for this (state, event) pair\"\n"),
              std::string::npos);
}

// --- Message-dependency-graph pass ----------------------------------

namespace
{

bool
hasMdgFinding(const MdgReport &r, const std::string &kind)
{
    return std::any_of(r.findings.begin(), r.findings.end(),
                       [&](const LintFinding &f) {
                           return f.kind == kind;
                       });
}

/** Point a rule's allowed-sends set at exactly @p sends (tests seed
 *  defects through findMutable, which bypasses TransitionSpec::add's
 *  sendMask maintenance). */
void
setSends(TransitionRule *rule, std::vector<MsgType> sends)
{
    rule->sends = std::move(sends);
    rule->sendMask = 0;
    for (MsgType t : rule->sends)
        rule->sendMask |= 1ull << static_cast<unsigned>(t);
}

} // namespace

TEST(Mdg, ShippedSpecsAreClean)
{
    for (ProtocolKind kind : registeredPolicyKinds()) {
        const CoherencePolicy &p = policyFor(kind);
        const MdgReport r = analyzeMdg(p.spec());
        for (const auto &f : r.findings) {
            ADD_FAILURE() << p.name() << ": " << f.kind << ": "
                          << f.detail;
        }
        EXPECT_TRUE(r.clean());
        EXPECT_FALSE(r.sinks.empty());
        EXPECT_FALSE(r.edges.empty());
    }

    // The full protocol spec's residual non-sinks are exactly the
    // request vocabulary plus the upgrade-retry ack.
    const MdgReport full = analyzeMdg(protocolSpec());
    EXPECT_EQ(full.messages.size(), 23u);
    EXPECT_EQ(full.sinks.size(), 19u);
    EXPECT_GT(full.nackProtectedEdges, 0u);
}

TEST(Mdg, DetectsChannelCycle)
{
    TransitionSpec spec = buildProtocolSpec();
    // Seed a classic channel-class inversion: the home answers the
    // SHWB response by emitting a fresh intervention, whose handler
    // may emit another SHWB -- consumption of either type now needs
    // channel space for the other.
    TransitionRule *rule = spec.findMutable(
        Ctrl::Dir, static_cast<StateId>(DirState::BusyRead),
        PEvent::SharedWriteback);
    ASSERT_NE(rule, nullptr);
    setSends(rule, {MsgType::IntervDowngrade});

    const MdgReport r = analyzeMdg(spec);
    ASSERT_TRUE(hasMdgFinding(r, "channel-cycle"));
    for (const auto &f : r.findings) {
        if (f.kind != "channel-cycle")
            continue;
        EXPECT_NE(f.detail.find("SharedWriteback"), std::string::npos);
        EXPECT_NE(f.detail.find("IntervDowngrade"), std::string::npos);
    }
}

TEST(Mdg, DetectsUnprotectedForward)
{
    TransitionSpec spec = buildProtocolSpec();
    // Drop the NACK escape from the delegated home's read forward:
    // under pressure the forward has no shed path.
    TransitionRule *rule = spec.findMutable(
        Ctrl::Dir, static_cast<StateId>(DirState::Dele),
        PEvent::ReqShared);
    ASSERT_NE(rule, nullptr);
    setSends(rule, {MsgType::ReqShared, MsgType::HomeHint});

    const MdgReport r = analyzeMdg(spec);
    EXPECT_TRUE(hasMdgFinding(r, "unprotected-forward"));
    // The unprotected self-forward is also a dependency cycle.
    EXPECT_TRUE(hasMdgFinding(r, "channel-cycle"));
}

TEST(Mdg, DetectsChannelCapacity)
{
    TransitionSpec spec = buildProtocolSpec();
    TransitionRule *rule = spec.findMutable(
        Ctrl::Cache, static_cast<StateId>(LineState::Modified),
        PEvent::IntervDowngrade);
    ASSERT_NE(rule, nullptr);
    // Five response-class sends from one handler exceed the reference
    // network's channel depth (mc::chanDepth = 4).
    setSends(rule,
             {MsgType::SharedResp, MsgType::SharedWriteback,
              MsgType::IntervNack, MsgType::RespSharedData,
              MsgType::InvalAck});

    const MdgReport r = analyzeMdg(spec);
    EXPECT_TRUE(hasMdgFinding(r, "channel-capacity"));
}

TEST(Mdg, DetectsUndeliverableSend)
{
    TransitionSpec spec = buildWriteUpdateSpec();
    // Delegate has no delivery rule anywhere in the write-update
    // vocabulary: sending it wedges the channel forever.
    TransitionRule *rule = spec.findMutable(
        Ctrl::Dir, static_cast<StateId>(DirState::BusyUpd),
        PEvent::UpdateWB);
    ASSERT_NE(rule, nullptr);
    setSends(rule, {MsgType::Update, MsgType::Delegate});

    const MdgReport r = analyzeMdg(spec);
    EXPECT_TRUE(hasMdgFinding(r, "undeliverable-send"));
}

// --- Liveness pass --------------------------------------------------

TEST(Liveness, DetectsStalledUpdateEpisode)
{
    // Seeded defect (ModelConfig::defectStallUpdateWB): the home
    // consumes the writer's UpdateWB without closing the BUSY_UPD
    // episode, so every later request NACKs forever -- a non-progress
    // retry loop, not a hard deadlock. Checked for both update
    // policies.
    for (bool adaptive : {false, true}) {
        NamedModelConfig c;
        c.name = adaptive ? "adaptive-hybrid" : "write-update";
        c.cfg.nodes = 3;
        c.cfg.maxWrites = 2;
        c.cfg.maxReads = 1;
        c.cfg.writeUpdate = true;
        c.cfg.adaptive = adaptive;
        c.cfg.defectStallUpdateWB = true;

        const LivenessReport r = analyzeLiveness({c});
        ASSERT_EQ(r.findings.size(), 1u) << c.name;
        const LivenessFinding &f = r.findings[0];
        EXPECT_EQ(f.kind, "livelock") << c.name;
        EXPECT_EQ(f.config, c.name);
        EXPECT_NE(f.detail.find("non-progress cycle"),
                  std::string::npos);
        // The lasso witness: a concrete prefix into the bad region, a
        // cycle around it, and the CPU ops that replay the schedule.
        EXPECT_FALSE(f.witness.prefix.empty()) << c.name;
        ASSERT_FALSE(f.witness.cycle.empty()) << c.name;
        EXPECT_FALSE(f.witness.ops.empty()) << c.name;
        // The prefix must drive the defect: the home consuming the
        // writer's UpdateWB is what opens the eternal-NACK episode.
        bool delivers_updatewb = false;
        for (const std::string &hop : f.witness.prefix)
            delivers_updatewb |=
                hop.find("UpdateWB") != std::string::npos;
        EXPECT_TRUE(delivers_updatewb) << c.name;
    }
}

TEST(Liveness, GoldenJsonReport)
{
    // The lint loop over every registered policy, as `pcsim lint
    // --liveness --json FILE` runs it (CI diffs the same bytes): every
    // model family is live and fully explored, and the combined
    // document matches the committed golden. Regenerate with:
    //   build/apps/pcsim lint --liveness --policy=all
    //   --json tests/golden/lint_liveness.json
    const LintRun run =
        lintPolicies(LintPass::Liveness, registeredPolicyKinds());
    for (const PolicyLint &p : run.policies) {
        const char *name = policyFor(p.kind).name();
        const LivenessReport &r = *p.liveness;
        for (const auto &f : r.findings) {
            ADD_FAILURE() << name << ": " << f.kind << " (" << f.config
                          << "): " << f.detail;
        }
        EXPECT_TRUE(r.clean()) << name;
        ASSERT_FALSE(r.configs.empty()) << name;
        for (const auto &c : r.configs) {
            EXPECT_TRUE(c.completed) << name << " " << c.name;
            EXPECT_GT(c.states, 0u) << name << " " << c.name;
            EXPECT_GT(c.progressEdges, 0u) << name << " " << c.name;
            EXPECT_GT(c.quiescentStates, 0u) << name << " " << c.name;
        }
    }

    const std::string got = run.toJson().dump(2) + "\n";
    const std::string want =
        readFile(std::string(PCSIM_SOURCE_DIR) +
                 "/tests/golden/lint_liveness.json");
    ASSERT_FALSE(want.empty()) << "golden file missing";
    EXPECT_EQ(got, want);
}
