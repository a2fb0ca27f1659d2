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
    Message m;
    m.type = MsgType::ReqShared;
    EXPECT_EQ(m.sizeBytes(), 32u); // header only
    m.type = MsgType::RespSharedData;
    EXPECT_EQ(m.sizeBytes(), 32u + 128u);
    m.type = MsgType::Update;
    EXPECT_EQ(m.sizeBytes(), 160u);
    m.type = MsgType::InvalAck;
    EXPECT_EQ(m.sizeBytes(), 32u);
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
    EXPECT_EQ(net.numLocalMessages(), 1u);
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

TEST_F(NetFixture, OneDrainPerNodeAndArrivalTick)
{
    // k = 7 messages over m = 3 distinct (node, arrival tick) pairs:
    // nodes 1-3 reach node 0 at 108, nodes 8-10 reach it at 208, and
    // node 5 reaches node 4 at 108. Sends interleave the two ticks so
    // arrivals are filed out of order. Each pair costs one drain
    // event, each message one delivery.
    for (NodeId src : {NodeId(8), NodeId(1), NodeId(9), NodeId(2),
                       NodeId(10), NodeId(3)})
        net.send(msg(src, 0));
    net.send(msg(5, 4));
    const std::uint64_t before = eq.stats().executed;
    eq.run();
    EXPECT_EQ(eq.stats().executed - before, 3u + 7u);
    ASSERT_EQ(sinks[0].got.size(), 6u);
    const NodeId want[] = {1, 2, 3, 8, 9, 10};
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(sinks[0].got[i].msg.src, want[i]);
    EXPECT_EQ(sinks[4].got.size(), 1u);
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

TEST_F(NetFixture, RandomTrafficMatchesTheTimingModel)
{
    // 3000 remote messages of both packet classes between random
    // nodes at random ticks, many sharing a tick, so arrival runs
    // grow, compact and take out-of-order inserts. An independent
    // model of the NI timing -- injection booked in send order,
    // ejection in (arrive, src, seq) order per node -- must predict
    // every delivery's node, order and tick, and the event count
    // must be one send, one drain per (node, arrival tick) and one
    // delivery per message.
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

    // (arrive, src, seq, occupancy, id) per destination.
    using Arr = std::tuple<Tick, NodeId, std::uint64_t, Tick, Version>;
    std::vector<std::vector<Arr>> arrivals(16);
    std::vector<Tick> egress(16, 0);
    std::vector<std::uint64_t> seq(16, 0);
    std::set<std::pair<NodeId, Tick>> drains;
    for (std::size_t i = 0; i < sends.size(); ++i) {
        const Send &x = sends[i];
        const Tick occ = x.data ? 40 : 8;
        const Tick inject = std::max(x.when, egress[x.src]);
        egress[x.src] = inject + occ;
        const Tick arrive = inject + occ +
                            cfg.hopLatency * net.topology().hops(x.src, x.dst);
        arrivals[x.dst].emplace_back(arrive, x.src, ++seq[x.src], occ,
                                     static_cast<Version>(i));
        drains.emplace(x.dst, arrive);
        eq.schedule(x.when, [this, x, i]() {
            Message m = msg(x.src, x.dst,
                            x.data ? MsgType::RespSharedData
                                   : MsgType::ReqShared);
            m.version = static_cast<Version>(i);
            net.send(m);
        });
    }
    eq.run();
    EXPECT_EQ(eq.stats().executed, 2 * sends.size() + drains.size());

    for (NodeId n = 0; n < 16; ++n) {
        std::sort(arrivals[n].begin(), arrivals[n].end());
        ASSERT_EQ(sinks[n].got.size(), arrivals[n].size()) << "node " << n;
        Tick ingress = 0;
        for (std::size_t k = 0; k < arrivals[n].size(); ++k) {
            const auto &[arrive, src, sq, occ, id] = arrivals[n][k];
            ingress = std::max(arrive, ingress) + occ;
            EXPECT_EQ(sinks[n].got[k].msg.version, id) << "node " << n;
            EXPECT_EQ(sinks[n].got[k].when, ingress) << "node " << n;
        }
    }
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
    net.resetStats();
    EXPECT_EQ(net.numMessages(), 0u);
    EXPECT_EQ(net.numBytes(), 0u);
}

TEST_F(NetFixture, HopHistogram)
{
    net.send(msg(0, 1));  // 1 hop
    net.send(msg(0, 8));  // 2 hops
    net.send(msg(0, 9));  // 2 hops
    eq.run();
    EXPECT_EQ(net.hopHistogram().bucket(1), 1u);
    EXPECT_EQ(net.hopHistogram().bucket(2), 2u);
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
