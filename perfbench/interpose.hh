/**
 * @file
 * Benchmark-side tracing at boundaries the simulator already exposes.
 *
 * Nothing here is compiled into the simulator. The driver wraps the
 * calls it makes itself (build, construct, run, teardown) and
 * interposes at two public interfaces:
 *  - a pass-through Workload, so every Cpu::nextOp pull is a span and
 *    each CPU's simulated time is charged to the op kind it last ran;
 *  - a forwarding MessageHandler per node, re-registered with the
 *    Network, so every Hub::handleMessage delivery is a span charged
 *    to the layer that owns the message type.
 *
 * Spans stay in memory and aggregate per name into count, total and
 * self time (total minus the time covered by nested spans), in
 * integer nanoseconds so self times sum exactly to the root span.
 */

#ifndef PERFBENCH_INTERPOSE_HH
#define PERFBENCH_INTERPOSE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/message.hh"
#include "src/sim/event_queue.hh"
#include "src/workload/workload.hh"

namespace perfbench
{

/** Span names, one per boundary the driver times. */
enum class Span : unsigned
{
    WorkloadBuild,
    SystemConstruct,
    SystemRun,
    SystemTeardown,
    WorkloadNext,
    CacheHandle,
    MemHandle,
    CoreHandle,
    NumSpans
};

inline const char *
spanName(Span s)
{
    static const char *const names[] = {
        "workload.build", "system.construct", "system.run",
        "system.teardown", "workload.next", "cache.handle",
        "mem.handle", "core.handle",
    };
    return names[static_cast<unsigned>(s)];
}

/** In-memory span recorder with per-name aggregation. */
class Tracer
{
  public:
    struct Agg
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    void
    enter(Span s)
    {
        _stack.push_back({s, nowNs(), 0});
    }

    void
    exit()
    {
        const Frame f = _stack.back();
        _stack.pop_back();
        const std::int64_t dur = nowNs() - f.start;
        Agg &a = _agg[static_cast<unsigned>(f.span)];
        ++a.count;
        a.totalNs += dur;
        a.selfNs += dur - f.childNs;
        if (!_stack.empty())
            _stack.back().childNs += dur;
    }

    const Agg &agg(Span s) const { return _agg[static_cast<unsigned>(s)]; }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, Span s) : _t(t) { _t.enter(s); }
        ~Scope() { _t.exit(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &_t;
    };

  private:
    struct Frame
    {
        Span span;
        std::int64_t start;
        std::int64_t childNs;
    };

    std::vector<Frame> _stack;
    std::array<Agg, static_cast<unsigned>(Span::NumSpans)> _agg{};
};

/**
 * The layer that handles a delivered message, decided from its type
 * alone. Looking at protocol state instead (ProducerController::
 * isDelegated, Hub::homeOf) would touch LRU recency or claim unplaced
 * pages and so change the simulation.
 */
inline Span
layerOf(pcsim::MsgType t)
{
    using pcsim::MsgType;
    switch (t) {
      case MsgType::ReqShared:
      case MsgType::ReqExcl:
      case MsgType::ReqUpgrade:
      case MsgType::WritebackM:
      case MsgType::SharedWriteback:
      case MsgType::TransferAck:
      case MsgType::IntervNack:
      case MsgType::Undele:
      case MsgType::UpdateWB:
      case MsgType::UpdateDrop:
        return Span::MemHandle;
      case MsgType::Delegate:
      case MsgType::Update:
      case MsgType::HomeHint:
        return Span::CoreHandle;
      default:
        return Span::CacheHandle;
    }
}

/** Forwards each delivery to the node's hub inside a span. */
class TracedHandler final : public pcsim::MessageHandler
{
  public:
    TracedHandler(pcsim::MessageHandler &hub, Tracer &tracer)
        : _hub(&hub), _tracer(&tracer)
    {
    }

    void
    handleMessage(const pcsim::Message &msg) override
    {
        Tracer::Scope span(*_tracer, layerOf(msg.type));
        _hub->handleMessage(msg);
    }

  private:
    pcsim::MessageHandler *_hub;
    Tracer *_tracer;
};

/**
 * Pass-through Workload. Every pull is a span; the simulated time
 * between a CPU's consecutive pulls is charged to the kind of the op
 * it pulled first, which splits each CPU's run time exactly into
 * read/write/think/barrier shares.
 */
class TracedWorkload final : public pcsim::Workload
{
  public:
    static constexpr unsigned numKinds = 4;

    TracedWorkload(pcsim::Workload &inner, Tracer &tracer)
        : _inner(inner), _tracer(tracer), _cpus(inner.numCpus())
    {
    }

    /** The queue whose clock the CPUs run on; set before each run. */
    void setClock(const pcsim::EventQueue &eq) { _clock = &eq; }

    const std::string &name() const override { return _inner.name(); }
    unsigned numCpus() const override { return _inner.numCpus(); }

    bool
    next(unsigned cpu, pcsim::MemOp &op) override
    {
        Tracer::Scope span(_tracer, Span::WorkloadNext);
        const pcsim::Tick now = _clock->curTick();
        CpuAcct &c = _cpus.at(cpu);
        if (c.started)
            _ticks[static_cast<unsigned>(c.last)] += now - c.since;
        const bool more = _inner.next(cpu, op);
        c.started = more;
        c.last = op.kind;
        c.since = now;
        if (more)
            ++_ops;
        return more;
    }

    void
    reset() override
    {
        _inner.reset();
        for (auto &c : _cpus)
            c = CpuAcct{};
    }

    /** Forwarded so the System keeps its trace-scan page placement;
     *  without it every run falls back to dynamic first touch. */
    const std::vector<pcsim::MemOp> *
    cpuOps(unsigned cpu) const override
    {
        return _inner.cpuOps(cpu);
    }

    std::uint64_t ops() const { return _ops; }
    /** Simulated ticks charged to @p kind, summed over CPUs and runs. */
    std::uint64_t
    ticks(pcsim::MemOp::Kind kind) const
    {
        return _ticks[static_cast<unsigned>(kind)];
    }

  private:
    struct CpuAcct
    {
        bool started = false;
        pcsim::MemOp::Kind last = pcsim::MemOp::Kind::Think;
        pcsim::Tick since = 0;
    };

    pcsim::Workload &_inner;
    Tracer &_tracer;
    const pcsim::EventQueue *_clock = nullptr;
    std::vector<CpuAcct> _cpus;
    std::uint64_t _ops = 0;
    std::array<std::uint64_t, numKinds> _ticks{};
};

} // namespace perfbench

#endif // PERFBENCH_INTERPOSE_HH
