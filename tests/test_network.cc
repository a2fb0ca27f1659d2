/** @file Topology and interconnect tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/net/faults.hh"
#include "src/sim/random.hh"
#include "src/net/network.hh"
#include "src/net/topology.hh"
#include "src/sim/event_queue.hh"

using namespace pcsim;

TEST(Topology, SixteenNodesRadix8)
{
    FatTreeTopology t(16, 8);
    EXPECT_EQ(t.depth(), 2u);
    EXPECT_EQ(t.hops(3, 3), 0u);
    EXPECT_EQ(t.hops(0, 7), 1u);  // same leaf router
    EXPECT_EQ(t.hops(0, 8), 2u);  // across the root
    EXPECT_EQ(t.hops(15, 9), 1u);
    EXPECT_EQ(t.hops(7, 8), 2u);
}

TEST(Topology, SymmetricHops)
{
    FatTreeTopology t(16, 8);
    for (NodeId a = 0; a < 16; ++a)
        for (NodeId b = 0; b < 16; ++b)
            EXPECT_EQ(t.hops(a, b), t.hops(b, a));
}

TEST(Topology, LargerSystems)
{
    FatTreeTopology t64(64, 8);
    EXPECT_EQ(t64.depth(), 2u);
    EXPECT_EQ(t64.hops(0, 63), 2u);
    FatTreeTopology t512(512, 8);
    EXPECT_EQ(t512.depth(), 3u);
    EXPECT_EQ(t512.hops(0, 511), 3u);
    EXPECT_EQ(t512.hops(0, 63), 2u);
    EXPECT_EQ(t512.hops(0, 7), 1u);
}

TEST(Message, SizesFollowPayload)
{
    // Exactly these 11 of the 26 types carry a 128-byte line.
    const std::set<MsgType> data = {
        MsgType::WritebackM,      MsgType::RespSharedData,
        MsgType::RespExclData,    MsgType::SharedResp,
        MsgType::SharedWriteback, MsgType::ExclResp,
        MsgType::Delegate,        MsgType::Undele,
        MsgType::Update,          MsgType::UpdGrant,
        MsgType::UpdateWB};
    unsigned types = 0;
    Message m;
    for (unsigned t = 0; t < unsigned(MsgType::NumMsgTypes); ++t) {
        if (!isMessageType(t))
            continue;
        ++types;
        m.type = static_cast<MsgType>(t);
        EXPECT_EQ(m.sizeBytes(), data.count(m.type) ? 160u : 32u)
            << msgTypeName(m.type);
        EXPECT_EQ(msgCarriesData(m.type), data.count(m.type) > 0)
            << msgTypeName(m.type);
    }
    EXPECT_EQ(types, 26u);
}

TEST(Message, ChannelClassesSplitSixFiveFifteen)
{
    const std::set<MsgType> requests = {
        MsgType::ReqShared,  MsgType::ReqExcl,  MsgType::ReqUpgrade,
        MsgType::WritebackM, MsgType::UpdateWB, MsgType::Undele};
    const std::set<MsgType> interventions = {
        MsgType::Inval, MsgType::IntervDowngrade, MsgType::IntervTransfer,
        MsgType::Delegate, MsgType::Update};
    unsigned per_class[3] = {0, 0, 0};
    for (unsigned t = 0; t < unsigned(MsgType::NumMsgTypes); ++t) {
        if (!isMessageType(t))
            continue;
        const auto type = static_cast<MsgType>(t);
        MsgClass want = MsgClass::Response;
        if (requests.count(type))
            want = MsgClass::Request;
        else if (interventions.count(type))
            want = MsgClass::Intervention;
        EXPECT_EQ(msgClassOf(type), want) << msgTypeName(type);
        ++per_class[static_cast<unsigned>(msgClassOf(type))];
    }
    EXPECT_EQ(per_class[0], 6u);
    EXPECT_EQ(per_class[1], 5u);
    EXPECT_EQ(per_class[2], 15u);
}

namespace
{

/** Records deliveries with their ticks. */
struct Sink : MessageHandler
{
    struct Delivery
    {
        Message msg;
        Tick when;
    };
    EventQueue *eq = nullptr;
    std::vector<Delivery> got;

    void
    handleMessage(const Message &msg) override
    {
        got.push_back({msg, eq->curTick()});
    }
};

struct NetFixture : ::testing::Test
{
    EventQueue eq;
    NetworkConfig cfg;
    Network net{eq, 16, cfg};
    Sink sinks[16];

    void
    SetUp() override
    {
        for (int i = 0; i < 16; ++i) {
            sinks[i].eq = &eq;
            net.registerHandler(i, &sinks[i]);
        }
    }

    Message
    msg(NodeId src, NodeId dst, MsgType t = MsgType::ReqShared)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.addr = 0x1000;
        return m;
    }
};

} // namespace

TEST_F(NetFixture, DeliveryLatencyMatchesHops)
{
    // 1 hop (same leaf): occupancy(8B/cycle? cfg: 32B/4Bpc = 8) +
    // 100 + occupancy.
    net.send(msg(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1].got.size(), 1u);
    EXPECT_EQ(sinks[1].got[0].when, 8u + 100 + 8);

    // 2 hops (across leaves), issued at tick 116 after the drain.
    net.send(msg(0, 8));
    eq.run();
    ASSERT_EQ(sinks[8].got.size(), 1u);
    EXPECT_EQ(sinks[8].got[0].when,
              sinks[1].got[0].when + 8 + 2 * 100 + 8);
}

TEST_F(NetFixture, DataMessagesTakeLongerToSerialize)
{
    net.send(msg(0, 1, MsgType::RespSharedData)); // 160 B -> 40 cycles
    eq.run();
    EXPECT_EQ(sinks[1].got[0].when, 40u + 100 + 40);
}

TEST_F(NetFixture, LocalMessagesBypassTheWires)
{
    net.send(msg(3, 3));
    eq.run();
    ASSERT_EQ(sinks[3].got.size(), 1u);
    EXPECT_EQ(sinks[3].got[0].when, cfg.localLatency);
    EXPECT_EQ(net.numMessages(), 0u);
}

TEST_F(NetFixture, EgressPortSerializesInjection)
{
    // Two back-to-back sends from node 0 to different destinations:
    // the second is delayed by the first's occupancy.
    net.send(msg(0, 1));
    net.send(msg(0, 2));
    eq.run();
    EXPECT_EQ(sinks[1].got[0].when, 116u);
    EXPECT_EQ(sinks[2].got[0].when, 124u);
}

TEST_F(NetFixture, IngressPortSerializesEjection)
{
    net.send(msg(1, 0));
    net.send(msg(2, 0));
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 2u);
    EXPECT_EQ(sinks[0].got[1].when - sinks[0].got[0].when, 8u);
}

TEST_F(NetFixture, PointToPointOrderingHolds)
{
    // The protocol's writeback-race resolution depends on per-pair
    // FIFO delivery; hammer one pair with mixed sizes and check.
    for (int i = 0; i < 50; ++i) {
        Message m = msg(4, 9, (i % 3 == 0) ? MsgType::RespSharedData
                                           : MsgType::ReqShared);
        m.version = i;
        net.send(m);
    }
    eq.run();
    ASSERT_EQ(sinks[9].got.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sinks[9].got[i].msg.version,
                  static_cast<Version>(i));
}

TEST_F(NetFixture, SameTickArrivalsEjectInSourceOrder)
{
    // Nodes 3, 2 and 1 share node 0's leaf, so messages they inject
    // at tick 0 all arrive at tick 108. Sent in descending source
    // order, they still eject in (src, seq) order, each holding the
    // ingress NI for its 8-tick occupancy.
    for (NodeId src : {NodeId(3), NodeId(2), NodeId(1)})
        net.send(msg(src, 0));
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, NodeId(i + 1));
        EXPECT_EQ(sinks[0].got[i].when, 116u + 8 * i);
    }
}

TEST_F(NetFixture, EarlierArrivalOvertakesEarlierSend)
{
    // Node 8 (two hops away) sends first and arrives at 208; node 1
    // (one hop) sends at tick 50 and arrives at 158, so it ejects
    // first although it was filed behind node 8's message.
    net.send(msg(8, 0));
    eq.schedule(50, [&]() { net.send(msg(1, 0)); });
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 2u);
    EXPECT_EQ(sinks[0].got[0].msg.src, 1);
    EXPECT_EQ(sinks[0].got[0].when, 166u);
    EXPECT_EQ(sinks[0].got[1].msg.src, 8);
    EXPECT_EQ(sinks[0].got[1].when, 216u);
}

TEST_F(NetFixture, OneEventPerMessagePlusRefiles)
{
    // Seven messages: nodes 1-3 reach node 0 at 108, nodes 8-10 reach
    // it at 208, and node 5 reaches node 4 at 108. Sends interleave
    // the two ticks so arrivals are filed out of order, but the
    // 108-tick group has ejected by 132, before the 208-tick group
    // arrives, so no booking moves: one delivery event per message
    // and no re-file.
    for (NodeId src : {NodeId(8), NodeId(1), NodeId(9), NodeId(2),
                       NodeId(10), NodeId(3)})
        net.send(msg(src, 0));
    net.send(msg(5, 4));
    EXPECT_EQ(eq.stats().scheduled, 7u);
    eq.run();
    EXPECT_EQ(eq.stats().executed, 7u);
    ASSERT_EQ(sinks[0].got.size(), 6u);
    const NodeId want[] = {1, 2, 3, 8, 9, 10};
    for (unsigned i = 0; i < 6; ++i) {
        EXPECT_EQ(sinks[0].got[i].msg.src, want[i]);
        EXPECT_EQ(sinks[0].got[i].when,
                  (i < 3 ? 116u : 216u) + 8 * (i % 3));
    }
    EXPECT_EQ(sinks[4].got.size(), 1u);
}

TEST_F(NetFixture, EarlierArrivalMovesABookedDelivery)
{
    // Node 8's header message arrives at 208 and is booked to eject
    // by 216. Node 1's data message, sent at tick 60, arrives earlier
    // (200) and holds the ingress NI until 240, so node 8's delivery
    // moves to 248: its event fires at 216, re-files itself at 248
    // and runs there, one event later than a message never moved.
    net.send(msg(8, 0));
    eq.schedule(60, [&]() { net.send(msg(1, 0, MsgType::RespSharedData)); });
    eq.run();
    ASSERT_EQ(sinks[0].got.size(), 2u);
    EXPECT_EQ(sinks[0].got[0].msg.src, 1);
    EXPECT_EQ(sinks[0].got[0].when, 240u);
    EXPECT_EQ(sinks[0].got[1].msg.src, 8);
    EXPECT_EQ(sinks[0].got[1].when, 248u);
    // The send, two deliveries and one re-file.
    EXPECT_EQ(eq.stats().executed, 4u);
}

TEST_F(NetFixture, PointToPointOrderingSurvivesLinkLatencyFaults)
{
    // Every link turns gray for 2000 of every 4000 ticks and then
    // adds 5000 ticks of latency, so a message injected just before a
    // window closes would arrive long after its successors. The FIFO
    // clamp holds them back: delivery order is still send order.
    FaultConfig f;
    f.enabled = true;
    f.grayLinkFraction = 1.0;
    f.grayExtraLatency = 5000;
    f.grayPeriod = 4000;
    f.grayDuration = 2000;
    FaultPlan plan(f, 16, Rng(3));
    ASSERT_TRUE(plan.linkIsGray(4, 9));
    net.setFaultPlan(&plan);
    for (int i = 0; i < 100; ++i) {
        eq.schedule(Tick(100) * i, [this, i]() {
            Message m = msg(4, 9);
            m.version = i;
            net.send(m);
        });
    }
    eq.run();
    ASSERT_EQ(sinks[9].got.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sinks[9].got[i].msg.version, static_cast<Version>(i));
    // Both delayed and undelayed messages were in the stream.
    EXPECT_GT(net.faultDelayedMessages(), 0u);
    EXPECT_LT(net.faultDelayedMessages(), 100u);
}

TEST_F(NetFixture, FaultDelayCountsArrivalsFromTheResetBoundary)
{
    // Two messages on gray links, each 5000 ticks late. The stats
    // reset falls one tick after the first arrives, while it is still
    // ejecting: only the second, arriving at or after the boundary,
    // counts as fault-delayed.
    FaultConfig f;
    f.enabled = true;
    f.grayLinkFraction = 1.0;
    f.grayExtraLatency = 5000;
    f.grayPeriod = 4000;
    f.grayDuration = 2000;
    FaultPlan plan(f, 16, Rng(3));
    net.setFaultPlan(&plan);
    const auto grayFrom = [&](NodeId src, Tick t) {
        while (plan.extraLatency(src, 9, t) == 0)
            ++t;
        return t;
    };
    const Tick t0 = grayFrom(4, 0);
    const Tick t1 = grayFrom(5, t0 + 1);
    eq.schedule(t0, [&]() { net.send(msg(4, 9)); });
    eq.schedule(t1, [&]() { net.send(msg(5, 9)); });
    const Tick first = t0 + 8 + 2 * 100 + 5000;
    eq.run(first);
    net.resetStats(first + 1);
    eq.run();
    ASSERT_EQ(sinks[9].got.size(), 2u);
    EXPECT_EQ(sinks[9].got[0].when, first + 8);
    EXPECT_EQ(net.faultDelayedMessages(), 1u);
    EXPECT_EQ(net.faultExtraTicks(), 5000u);
}

TEST_F(NetFixture, RandomTrafficMatchesTheTimingModel)
{
    // 3000 remote messages of both packet classes between random
    // nodes at random ticks, many sharing a tick, so arrival runs
    // grow, compact and take out-of-order inserts. An independent
    // model of the NI timing -- injection booked in send order,
    // ejection in (arrive, src, seq) order per node -- must predict
    // every delivery's node, order and tick. The event count must be
    // one send and one delivery per message, plus one re-file per
    // message whose first booking (made when it was sent, behind the
    // arrivals filed at its node so far) is not its final tick.
    struct Send
    {
        Tick when;
        NodeId src, dst;
        bool data;
    };
    Rng rng(7);
    std::vector<Send> sends(3000);
    for (Send &x : sends) {
        x.when = rng.below(20000);
        x.src = static_cast<NodeId>(rng.below(16));
        x.dst = static_cast<NodeId>((x.src + 1 + rng.below(15)) % 16);
        x.data = rng.below(2) == 1;
    }
    std::stable_sort(sends.begin(), sends.end(),
                     [](const Send &a, const Send &b) {
                         return a.when < b.when;
                     });

    // (arrive, src, seq, occupancy, id) per destination, sorted.
    using Arr = std::tuple<Tick, NodeId, std::uint64_t, Tick, Version>;
    std::vector<std::vector<Arr>> arrivals(16);
    std::vector<Tick> egress(16, 0);
    std::vector<std::uint64_t> seq(16, 0);
    // Ejection ends of node n's sorted arrivals; entry `id`'s first.
    const auto ejections = [](const std::vector<Arr> &run) {
        std::vector<Tick> out;
        Tick ingress = 0;
        for (const auto &[arrive, src, sq, occ, id] : run)
            out.push_back(ingress = std::max(arrive, ingress) + occ);
        return out;
    };
    std::vector<Tick> firstBooking(sends.size());
    for (std::size_t i = 0; i < sends.size(); ++i) {
        const Send &x = sends[i];
        const Tick occ = x.data ? 40 : 8;
        const Tick inject = std::max(x.when, egress[x.src]);
        egress[x.src] = inject + occ;
        const Tick arrive = inject + occ +
                            cfg.hopLatency * net.topology().hops(x.src, x.dst);
        const Arr a{arrive, x.src, ++seq[x.src], occ,
                    static_cast<Version>(i)};
        std::vector<Arr> &run = arrivals[x.dst];
        const auto at = run.insert(
            std::upper_bound(run.begin(), run.end(), a), a);
        firstBooking[i] = ejections(run)[at - run.begin()];
        eq.schedule(x.when, [this, x, i]() {
            Message m = msg(x.src, x.dst,
                            x.data ? MsgType::RespSharedData
                                   : MsgType::ReqShared);
            m.version = static_cast<Version>(i);
            net.send(m);
        });
    }
    eq.run();

    std::size_t refiles = 0;
    for (NodeId n = 0; n < 16; ++n) {
        ASSERT_EQ(sinks[n].got.size(), arrivals[n].size()) << "node " << n;
        const std::vector<Tick> ejected = ejections(arrivals[n]);
        for (std::size_t k = 0; k < arrivals[n].size(); ++k) {
            const Version id = std::get<4>(arrivals[n][k]);
            EXPECT_EQ(sinks[n].got[k].msg.version, id) << "node " << n;
            EXPECT_EQ(sinks[n].got[k].when, ejected[k]) << "node " << n;
            refiles += firstBooking[id] != ejected[k];
        }
    }
    EXPECT_GT(refiles, 0u);
    EXPECT_EQ(eq.stats().executed, 2 * sends.size() + refiles);
}

TEST_F(NetFixture, StatsTrackMessagesAndBytes)
{
    net.send(msg(0, 1));
    net.send(msg(0, 2, MsgType::Update));
    eq.run();
    EXPECT_EQ(net.numMessages(), 2u);
    EXPECT_EQ(net.numBytes(), 32u + 160u);
    EXPECT_EQ(net.numByType(MsgType::Update), 1u);
    EXPECT_EQ(net.numByType(MsgType::ReqShared), 1u);
    net.resetStats(eq.curTick());
    EXPECT_EQ(net.numMessages(), 0u);
    EXPECT_EQ(net.numBytes(), 0u);
}

TEST(NetworkConfigTest, HopLatencyScalesDelivery)
{
    for (Tick hop : {50u, 100u, 200u, 400u}) {
        EventQueue eq;
        NetworkConfig cfg;
        cfg.hopLatency = hop;
        Network net(eq, 16, cfg);
        Sink s;
        s.eq = &eq;
        Sink dummy;
        dummy.eq = &eq;
        net.registerHandler(0, &dummy);
        net.registerHandler(8, &s);
        Message m;
        m.type = MsgType::ReqShared;
        m.src = 0;
        m.dst = 8;
        net.send(m);
        eq.run();
        ASSERT_EQ(s.got.size(), 1u);
        EXPECT_EQ(s.got[0].when, 8 + 2 * hop + 8);
    }
}
