#include "src/system/system.hh"

#include <algorithm>
#include <chrono>

#include "src/protocol/policy.hh"
#include "src/sim/logging.hh"

namespace pcsim
{

System::System(const MachineConfig &cfg)
    : _cfg(cfg),
      _checker(cfg.proto.checkerEnabled),
      _memMap(cfg.proto.numNodes, cfg.pageBytes),
      _net(_eq, cfg.proto.numNodes, cfg.net)
{
    cfg.proto.validate();
    if (cfg.proto.checkerEnabled || cfg.proto.conformanceEnabled)
        _trace = std::make_unique<verify::MessageTrace>();
    if (cfg.proto.conformanceEnabled) {
        // Each policy is held to its own transition spec.
        _observer = std::make_unique<verify::TransitionObserver>(
            policyFor(cfg.proto.kind).spec(), _trace.get());
    }
    _checker.setTrace(_trace.get());
    _checker.setUpdateBased(cfg.proto.updateBased());
    // Barrier flags share a page; interleave their homes by line so
    // placement is content-determined and no single directory absorbs
    // every CPU's synchronization traffic (flag k homes at node k,
    // the release line at the master).
    _memMap.setInterleavedRegion(
        cfg.barrierBase,
        Addr(cfg.proto.numNodes + 1) * cfg.proto.lineBytes,
        cfg.proto.lineBytes);
    Rng root(cfg.seed);
    std::vector<Hub *> hub_ptrs;
    for (unsigned n = 0; n < cfg.proto.numNodes; ++n) {
        _hubs.push_back(std::make_unique<Hub>(
            _eq, _net, _memMap, _checker, _cfg.proto,
            static_cast<NodeId>(n),
            forkNodeRng(root, static_cast<NodeId>(n))));
        _hubs.back()->setConsumerHist(
            &_consumerHist, cfg.barrierBase,
            (cfg.proto.numNodes + 1) * cfg.proto.lineBytes);
        _hubs.back()->setConformance(_observer.get(), _trace.get());
        hub_ptrs.push_back(_hubs.back().get());
    }
    _barrier = std::make_unique<BarrierDriver>(
        hub_ptrs, cfg.barrierBase, cfg.proto.lineBytes,
        cfg.barrierSpinDelay);

    // Fault plan LAST, and only when enabled: fault-free runs draw the
    // exact same fork sequence as before, keeping their results
    // byte-identical to the goldens.
    if (cfg.proto.faults.enabled) {
        _faultPlan = std::make_unique<FaultPlan>(
            cfg.proto.faults, cfg.proto.numNodes, root.fork());
        _net.setFaultPlan(_faultPlan.get());
    }
}

System::~System() = default;

void
System::resetStats(Tick boundary)
{
    for (auto &hub : _hubs)
        hub->stats().reset();
    _net.resetStats(boundary);
    _consumerHist.reset();
    _statsResetTick = boundary;
}

/**
 * Deterministic first-touch page placement, computed from the traces
 * before any event runs: scan all CPU streams round-robin by op index
 * and let the first Read/Write claim each page, so placement depends
 * only on the traces, never on the order CPUs happen to execute in.
 * (The barrier flag region is not part of any trace; it is
 * line-interleaved by the memory map, see setInterleavedRegion.) The
 * map is then frozen, which checks that pre-placement was complete: a
 * later first touch of an unplaced page panics.
 */
void
System::preplacePages(Workload &workload)
{
    const unsigned n_cpus = numNodes();
    std::vector<const std::vector<MemOp> *> ops(n_cpus);
    for (unsigned n = 0; n < n_cpus; ++n)
        ops[n] = workload.cpuOps(n);

    std::size_t max_ops = 0;
    for (unsigned n = 0; n < n_cpus; ++n)
        max_ops = std::max(max_ops, ops[n]->size());
    for (std::size_t i = 0; i < max_ops; ++i) {
        for (unsigned n = 0; n < n_cpus; ++n) {
            if (i >= ops[n]->size())
                continue;
            const MemOp &op = (*ops[n])[i];
            if (op.kind == MemOp::Kind::Read ||
                op.kind == MemOp::Kind::Write) {
                _memMap.homeOf(op.addr(), static_cast<NodeId>(n));
            }
        }
    }
    _memMap.freeze();
}

void
System::drain(Tick limit)
{
    while (true) {
        _eq.run(_resetBoundary ? std::min(limit, _resetBoundary - 1)
                               : limit);
        if (!_resetBoundary)
            return;
        Tick next;
        if (_eq.peekNextTick(next) && next < _resetBoundary) {
            if (next > limit)
                return;
            continue; // the stop that armed the reset; keep going
        }
        const Tick boundary = _resetBoundary;
        _resetBoundary = 0;
        for (auto &hub : _hubs)
            hub->settleSpin(boundary);
        resetStats(boundary);
    }
}

RunResult
System::run(Workload &workload, Tick max_ticks)
{
    if (workload.numCpus() != numNodes())
        fatal("workload wants %u CPUs, machine has %u",
              workload.numCpus(), numNodes());

    workload.reset();
    _cpus.clear();
    preplacePages(workload);

    unsigned running = numNodes();
    Tick last_done = 0;
    for (unsigned n = 0; n < numNodes(); ++n) {
        _cpus.push_back(std::make_unique<Cpu>(_eq, *_hubs[n], workload,
                                              *_barrier, n));
        Cpu *c = _cpus.back().get();
        c->setOnDone([&running, &last_done, c]() {
            --running;
            last_done = std::max(last_done, c->finishedAt());
        });
        c->start();
    }

    // Parallel-phase convention: barrier generation 1 ends init. The
    // stats reset applies at the first multiple of 1 + hop latency
    // after the generation's last pass tick, between events: once
    // every event before that boundary has run and before any at or
    // after it. Parked spinners' elided polls before the boundary
    // belong to init, so drain() credits them first.
    _barrier->setOnGeneration([this](std::uint64_t gen, Tick at) {
        if (gen == 1) {
            const Tick grid = 1 + _cfg.net.hopLatency;
            _resetBoundary = (at / grid + 1) * grid;
            _eq.requestStop();
        }
    });

    const auto wall_start = std::chrono::steady_clock::now();
    drain(max_ticks);

    if (running != 0) {
        // Parked spinners queue nothing, so a barrier that some CPU
        // never reaches drains the queue rather than spinning forever.
        if (_eq.empty())
            fatal("event queue drained with %u CPUs unfinished (a "
                  "barrier some CPU never reaches, or a deadlock)",
                  running);
        fatal("simulation hit the tick limit with %u CPUs unfinished "
              "(deadlock or limit too small)",
              running);
    }

    // Drain any leftover protocol work (pending delayed interventions
    // push updates after the CPUs finish) before the quiescent check.
    drain(maxTick);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    if (_checker.enabled()) {
        _checker.checkQuiescent(
            [this](Addr line) { return _memMap.homeOf(line); });
    }

    RunResult r;
    r.workload = workload.name();
    r.cycles = last_done > _statsResetTick ? last_done - _statsResetTick
                                           : last_done;
    for (auto &hub : _hubs) {
        // Worst-node percentiles, taken per node BEFORE the sum
        // (merging the histograms first would average the unlucky
        // node away; see RunResult).
        const NodeStats &ns = hub->stats();
        r.missLatencyP50 = std::max(
            r.missLatencyP50, latencyPercentile(ns.missLatencyHist, 0.50));
        r.missLatencyP95 = std::max(
            r.missLatencyP95, latencyPercentile(ns.missLatencyHist, 0.95));
        r.missLatencyP99 = std::max(
            r.missLatencyP99, latencyPercentile(ns.missLatencyHist, 0.99));
        r.nodes += ns;
    }
    r.netMessages = _net.numMessages();
    r.netBytes = _net.numBytes();
    r.nackMessages = _net.numByType(MsgType::Nack) +
                     _net.numByType(MsgType::NackNotHome);
    r.updateMessages = _net.numByType(MsgType::Update);
    r.consumerHist = _consumerHist;

    const EventQueueStats &eqs = _eq.stats();
    r.perf.eventsExecuted = eqs.executed;
    r.perf.eventsScheduled = eqs.scheduled;
    r.perf.peakQueueDepth = eqs.peakPending;
    r.perf.inlineCallbacks = eqs.inlineCallbacks;
    r.perf.heapCallbacks = eqs.heapCallbacks;
    r.perf.overflowEvents = eqs.overflowEvents;
    r.perf.windowAdvances = eqs.windowAdvances;
    const Pool<Message>::Stats pool_stats = _net.poolStats();
    r.perf.poolAcquires = pool_stats.acquires;
    r.perf.poolReuses = pool_stats.reuses;
    r.perf.simTicks = _eq.curTick();
    r.perf.wallSeconds = wall;
    if (_observer)
        r.conformance = _observer->coverage();
    if (_faultPlan) {
        r.faultsActive = true;
        r.faultDelayedMessages = _net.faultDelayedMessages();
        r.faultExtraTicks = _net.faultExtraTicks();
    }
    r.updateBased = _cfg.proto.updateBased();
    r.arbitrationActive = _cfg.proto.arbitrationActive();
    return r;
}

RunResult
runWorkload(const MachineConfig &cfg, Workload &workload,
            const std::string &config_name)
{
    System sys(cfg);
    RunResult r = sys.run(workload);
    r.config = config_name;
    return r;
}

} // namespace pcsim
