/** @file Model checking tests (Section 2.5): exhaustive reachability
 *  of the abstract protocol model and systematic interleaving
 *  exploration of the real implementation. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/mc/explorer.hh"
#include "src/mc/protocol_model.hh"
#include "src/mc/schedule_explorer.hh"
#include "src/system/presets.hh"

using namespace pcsim;
using namespace pcsim::mc;

namespace
{

McResult
check(ModelConfig cfg, std::uint64_t max_states = 5'000'000)
{
    return modelCheck(ProtocolModel(cfg), max_states);
}

/** A toy model over int states: each state's successors are listed
 *  in `next` (duplicates allowed), states in `done` are quiescent,
 *  and `bad` fails the invariant. */
struct Toy
{
    using State = int;
    std::map<int, std::vector<int>> next;
    std::set<int> done;
    int bad = -1;
    std::uint64_t buckets = 1u << 20; ///< hash = state % buckets
    mutable unsigned expansions = 0;

    State initial() const { return 0; }
    void
    transitions(const State &s, std::vector<State> &out) const
    {
        ++expansions;
        if (auto it = next.find(s); it != next.end())
            out.insert(out.end(), it->second.begin(), it->second.end());
    }
    void
    checkInvariants(const State &s) const
    {
        if (s == bad)
            throw McError("boom");
    }
    bool isQuiescent(const State &s) const { return done.count(s) > 0; }
    std::string describe(const State &s) const
    {
        return "state " + std::to_string(s);
    }
    std::string blockedSummary(const State &s) const
    {
        return "blocked at " + std::to_string(s);
    }
    std::uint64_t hash(const State &s) const { return s % buckets; }
    bool equal(const State &a, const State &b) const { return a == b; }
};

std::vector<int>
statesOf(const McGraph<int> &g)
{
    return {g.states.begin(), g.states.end()};
}

std::vector<std::uint32_t>
succOf(const McGraph<int> &g, std::uint32_t id)
{
    const auto s = g.succ(id);
    return {s.begin(), s.end()};
}

using Ids = std::vector<std::uint32_t>;

} // namespace

TEST(ExplorerEngine, TrivialModelTerminates)
{
    // A counter: states 0..4, +1 transitions, quiescent at 4.
    Toy m;
    m.next = {{0, {1}}, {1, {2}}, {2, {3}}, {3, {4}}};
    m.done = {4};
    McResult r = modelCheck(m);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.statesExplored, 5u);
    EXPECT_EQ(r.transitionsTaken, 4u);
}

TEST(ExplorerEngine, IdsFollowBfsOrderWithShortestPathParents)
{
    // 10 -> 30 -> 40 -> 60 is the shortest way to 60; 20 -> 50 -> 60
    // is as short but discovered later, and 20 -> 40 rediscovers 40.
    Toy m;
    m.next = {{0, {30, 20}}, {30, {40}}, {20, {40, 50}},
              {40, {60}},    {50, {60}}};
    m.done = {60};
    const McGraph<int> g = explore(m);
    EXPECT_TRUE(g.completed);
    EXPECT_EQ(statesOf(g), (std::vector<int>{0, 30, 20, 40, 50, 60}));
    EXPECT_EQ(g.parent, (Ids{0, 0, 0, 1, 2, 3}));
    EXPECT_EQ(g.quiescent,
              (std::vector<bool>{false, false, false, false, false,
                                 true}));
    EXPECT_TRUE(g.deadlocks.empty());
    EXPECT_EQ(g.transitionsTaken, 7u);
    EXPECT_EQ(succOf(g, 2), (Ids{3, 4}));
    EXPECT_EQ(succOf(g, 4), (Ids{5}));
    EXPECT_TRUE(succOf(g, 5).empty());
}

TEST(ExplorerEngine, DiamondListsSharedSuccessorOncePerPredecessor)
{
    // 1 reaches 3 by two transitions; both 1 and 2 list it once.
    Toy m;
    m.next = {{0, {1, 2}}, {1, {3, 3}}, {2, {3}}};
    m.done = {3};
    const McGraph<int> g = explore(m);
    EXPECT_EQ(g.states.size(), 4u);
    EXPECT_EQ(g.transitionsTaken, 5u);
    EXPECT_EQ(succOf(g, 1), (Ids{3}));
    EXPECT_EQ(succOf(g, 2), (Ids{3}));
    EXPECT_EQ(g.edges.size(), 4u);
}

TEST(ExplorerEngine, SelfLoopIsAnEdgeNotADeadlock)
{
    Toy m;
    m.next = {{0, {0, 1}}, {1, {1}}};
    const McGraph<int> g = explore(m);
    EXPECT_TRUE(g.completed);
    EXPECT_EQ(g.states.size(), 2u);
    EXPECT_EQ(succOf(g, 0), (Ids{0, 1}));
    EXPECT_EQ(succOf(g, 1), (Ids{1}));
    EXPECT_EQ(g.parent, (Ids{0, 0}));
    EXPECT_TRUE(g.deadlocks.empty());
    EXPECT_NO_THROW(modelCheck(m));
}

TEST(ExplorerEngine, CollidingHashesStayDistinctStates)
{
    // Every state hashes alike: duplicates are found along the chain.
    Toy m;
    m.next = {{0, {3, 1}}, {1, {2}}, {2, {3, 0}}, {3, {1}}};
    m.buckets = 1;
    const McGraph<int> g = explore(m);
    EXPECT_EQ(statesOf(g), (std::vector<int>{0, 3, 1, 2}));
    EXPECT_EQ(succOf(g, 1), (Ids{2}));
    EXPECT_EQ(succOf(g, 3), (Ids{1, 0}));
    EXPECT_EQ(g.edges.size(), 6u);
}

TEST(ExplorerEngine, DeadlocksComeInDiscoveryOrder)
{
    // 5 and 3 are non-quiescent sinks; 5 is discovered first.
    Toy m;
    m.next = {{0, {5, 3, 4}}, {4, {6}}};
    m.done = {6};
    const McGraph<int> g = explore(m);
    EXPECT_TRUE(g.completed);
    EXPECT_EQ(statesOf(g), (std::vector<int>{0, 5, 3, 4, 6}));
    EXPECT_EQ(g.deadlocks, (Ids{1, 2}));
}

TEST(ExplorerEngine, DetectsDeadlock)
{
    // modelCheck names the earliest deadlock, with the model's
    // blocked summary.
    Toy m;
    m.next = {{0, {5, 3, 4}}, {4, {6}}};
    m.done = {6};
    try {
        modelCheck(m);
        FAIL() << "deadlock not reported";
    } catch (const McError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "deadlock: no enabled transition in non-quiescent "
                  "state\nstate 5\nblocked at 5");
    }
}

TEST(ExplorerEngine, BoundedRunKeepsEveryExpandedStatesSuccessors)
{
    // A binary tree, stopped once more than 3 states are known: ids
    // 0 and 1 are expanded, 2..4 are not.
    Toy m;
    m.next = {{0, {1, 2}}, {1, {3, 4}}, {2, {5, 6}}};
    const McGraph<int> g = explore(m, 3);
    EXPECT_FALSE(g.completed);
    EXPECT_EQ(m.expansions, 2u);
    EXPECT_EQ(g.states.size(), 5u);
    EXPECT_EQ(g.transitionsTaken, 4u);
    EXPECT_EQ(succOf(g, 0), (Ids{1, 2}));
    EXPECT_EQ(succOf(g, 1), (Ids{3, 4}));
    for (std::uint32_t id = 2; id < 5; ++id)
        EXPECT_TRUE(succOf(g, id).empty()) << id;
    EXPECT_TRUE(g.deadlocks.empty());

    const McResult r = modelCheck(m, 3);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.statesExplored, 5u);
}

TEST(ExplorerEngine, DetectsInvariantViolation)
{
    // An unbounded counter whose state 3 is bad: the violation throws
    // while 2 is expanded, not when the exploration ends.
    struct Counter : Toy
    {
        void
        transitions(const State &s, std::vector<State> &out) const
        {
            ++expansions;
            out.push_back(s + 1);
        }
    };
    Counter m;
    m.bad = 3;
    try {
        explore(m);
        FAIL() << "violation not reported";
    } catch (const McError &e) {
        EXPECT_EQ(std::string(e.what()), "boom\nin state:\nstate 3");
    }
    EXPECT_EQ(m.expansions, 3u);
}

// --- Abstract protocol model (the Murphi analogue) ------------------

TEST(ProtocolMc, BaseProtocolTwoNodes)
{
    ModelConfig cfg;
    cfg.nodes = 2;
    cfg.maxWrites = 2;
    cfg.maxReads = 2;
    McResult r = check(cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.statesExplored, 100u);
}

TEST(ProtocolMc, BaseProtocolThreeNodes)
{
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 1;
    McResult r = check(cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.statesExplored, 1000u);
}

TEST(ProtocolMc, DelegationThreeNodes)
{
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 1;
    cfg.delegation = true;
    McResult r = check(cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.statesExplored, 1000u);
}

TEST(ProtocolMc, DelegationWithUpdatesTwoNodes)
{
    ModelConfig cfg;
    cfg.nodes = 2;
    cfg.maxWrites = 2;
    cfg.maxReads = 2;
    cfg.delegation = true;
    cfg.updates = true;
    McResult r = check(cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.statesExplored, 1000u);
}

TEST(ProtocolMc, DelegationWithUpdatesThreeNodes)
{
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 1;
    cfg.delegation = true;
    cfg.updates = true;
    McResult r = check(cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.statesExplored, 10'000u);
}

TEST(ProtocolMc, UpdatesWithMoreReadsBounded)
{
    // The widest configuration: exhaustive up to a state budget
    // (bounded model checking; any violation inside the bound
    // throws).
    ModelConfig cfg;
    cfg.nodes = 3;
    cfg.maxWrites = 2;
    cfg.maxReads = 2;
    cfg.delegation = true;
    cfg.updates = true;
    McResult r = check(cfg, 800'000);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.statesExplored, 800'002u);
    EXPECT_EQ(r.transitionsTaken, 2'267'926u);
}

TEST(ProtocolMc, CarriesExactlyTheTypesItSends)
{
    // modelCarries() is the vocabulary the mdg pass credits to the
    // model: each type it names must sit in some reachable channel of
    // the delegation+updates+queue or the adaptive-hybrid model, and
    // each type found there must be named. ReqUpgrade is carried as
    // ReqExcl, the model's one exclusive request.
    ModelConfig dele;
    dele.nodes = 3;
    dele.maxWrites = 2;
    dele.maxReads = 1;
    dele.delegation = true;
    dele.updates = true;
    dele.homeQueue = true;
    ModelConfig hybrid;
    hybrid.nodes = 3;
    hybrid.maxWrites = 2;
    hybrid.maxReads = 1;
    hybrid.writeUpdate = true;
    hybrid.adaptive = true;

    std::set<MsgType> sent;
    for (const ModelConfig &cfg : {dele, hybrid}) {
        const auto g = explore(ProtocolModel(cfg));
        ASSERT_TRUE(g.completed);
        for (const ProtocolModel::State &s : g.states)
            for (unsigned a = 0; a < cfg.nodes; ++a)
                for (unsigned b = 0; b < cfg.nodes; ++b)
                    for (unsigned i = 0; i < s.chanLen[a][b]; ++i)
                        sent.insert(s.chan[a][b][i].type);
    }
    EXPECT_FALSE(sent.count(MsgType::ReqUpgrade));
    for (unsigned v = 0; v < unsigned(MsgType::NumMsgTypes); ++v) {
        const auto t = static_cast<MsgType>(v);
        if (!isMessageType(v))
            continue;
        EXPECT_EQ(modelCarries(t),
                  sent.count(t) > 0 || t == MsgType::ReqUpgrade)
            << msgTypeName(t);
    }
}

// --- Systematic interleaving over the real implementation -----------

TEST(ScheduleMc, BaseProtocolInterleavings)
{
    const Addr a = 0x70000000ull;
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {false, a}},
        {{true, a}},
        {{false, a}},
    };
    ScheduleExplorer ex(presets::base(16), ops);
    ScheduleResult r = ex.run();
    // 4!/(2!1!1!) = 12 interleavings x 3 staggers.
    EXPECT_EQ(r.schedules, 36u);
}

TEST(ScheduleMc, TwoLinesCrossTraffic)
{
    const Addr a = 0x70000000ull, b = 0x70000080ull;
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {true, b}},
        {{false, b}, {false, a}},
        {{true, b}},
    };
    ScheduleExplorer ex(presets::base(16), ops);
    ScheduleResult r = ex.run();
    EXPECT_EQ(r.schedules, 90u); // 5!/(2!2!1!) x 3
}

TEST(ScheduleMc, FullMechanismInterleavings)
{
    const Addr a = 0x70000000ull;
    // Producer writes (will saturate the detector mid-exploration in
    // some schedules), consumers read, a conflict writer intrudes.
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {true, a}, {true, a}},
        {{false, a}, {false, a}},
        {{true, a}},
    };
    MachineConfig cfg = presets::small(16);
    cfg.proto.detector.writeRepeatSaturation = 1; // delegate eagerly
    ScheduleExplorer ex(cfg, ops);
    ScheduleResult r = ex.run();
    EXPECT_EQ(r.schedules, 180u); // 6!/(3!2!1!) x 3
}

TEST(ScheduleMc, ShortInterventionDelayInterleavings)
{
    const Addr a = 0x70000000ull;
    std::vector<std::vector<SchedOp>> ops = {
        {{true, a}, {true, a}},
        {{false, a}},
        {{true, a}},
    };
    MachineConfig cfg = presets::small(16);
    cfg.proto.detector.writeRepeatSaturation = 1;
    cfg.proto.interventionDelay = 1;
    ScheduleExplorer ex(cfg, ops, {0, 10, 60, 300});
    ScheduleResult r = ex.run();
    EXPECT_EQ(r.schedules, 48u); // 4!/(2!1!1!) x 4
}
