/**
 * @file
 * Runtime conformance hook: cross-checks every transition the
 * protocol controllers take against the declarative spec.
 *
 * Each controller handler opens a ConformanceScope around its body.
 * The scope samples the line's state on entry, registers an event
 * frame with the per-run TransitionObserver, and on exit samples the
 * state again and reports (state, event, next). The observer fails
 * the run (panic with node, line address and recent message trace)
 * when
 *  - the (state, event) pair has no rule or is declared impossible,
 *  - the handler sent a message type the rule does not allow, or
 *  - the next state is outside the rule's allowed set.
 *
 * Frames nest (LIFO): a handler that synchronously triggers another
 * protocol action -- e.g. a fill evicting a victim, or an eviction
 * flushing a delegated line -- opens an inner scope, and sends
 * attribute to the innermost frame. Sends with no frame open (NACK
 * bounces, scheduled retries) are ignored.
 *
 * The observer also accumulates per-transition counts, exported into
 * RunResult as the coverage feed for `pcsim lint --coverage`.
 */

#ifndef PCSIM_VERIFY_OBSERVER_HH
#define PCSIM_VERIFY_OBSERVER_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/types.hh"
#include "src/verify/spec.hh"
#include "src/verify/trace.hh"

namespace pcsim::verify
{

/** One observed (controller, state, event, next) with its count. */
struct TransitionCount
{
    std::uint8_t ctrl = 0;
    std::uint8_t state = 0;
    std::uint8_t event = 0;
    std::uint8_t next = 0;
    std::uint64_t count = 0;
};

/** Per-run spec cross-checker and transition-coverage counter. */
class TransitionObserver
{
  public:
    explicit TransitionObserver(const TransitionSpec &spec,
                                const MessageTrace *trace = nullptr)
        : _spec(spec), _trace(trace)
    {
    }

    /** Open an event frame (called by ConformanceScope). */
    void begin(Ctrl c, NodeId node, Addr line, StateId pre, PEvent ev);
    /** Check a send against the innermost open frame (no-op when no
     *  frame is open). */
    void noteSend(const Message &msg);
    /** Close the innermost frame with the observed next state. */
    void end(StateId post);

    /** Count @p n occurrences of a transition; end() counts checked
     *  ones, barrier-spin fast-forward credits a parked spinner's
     *  elided L1-hit polls (repeats of one it already checked). */
    void credit(Ctrl c, StateId pre, PEvent ev, StateId post,
                std::uint64_t n);

    /** Observed transitions, sorted (deterministic). */
    std::vector<TransitionCount> coverage() const;

    const TransitionSpec &spec() const { return _spec; }

  private:
    struct Frame
    {
        const TransitionRule *rule;
        Ctrl ctrl;
        NodeId node;
        Addr line;
        StateId pre;
        PEvent event;
    };

    [[noreturn]] void violation(const Frame &f, const char *what,
                                const std::string &detail) const;

    const TransitionSpec &_spec;
    const MessageTrace *_trace;
    /** Open frames; they nest strictly within one event execution. */
    std::vector<Frame> _frames;
    std::unordered_map<std::uint32_t, std::uint64_t> _counts;
};

/**
 * RAII frame for one controller handler. @p GetState is a callable
 * sampling the line's current state (it must be side-effect free --
 * in particular it must not touch LRU bookkeeping). Pass a null
 * observer to compile the hook out of the path at runtime.
 */
template <typename GetState>
class ConformanceScope
{
  public:
    ConformanceScope(TransitionObserver *obs, Ctrl c, NodeId node,
                     Addr line, PEvent ev, GetState get)
        : _obs(obs), _get(std::move(get))
    {
        if (_obs)
            _obs->begin(c, node, line, static_cast<StateId>(_get()),
                        ev);
    }

    ConformanceScope(const ConformanceScope &) = delete;
    ConformanceScope &operator=(const ConformanceScope &) = delete;

    ~ConformanceScope()
    {
        if (_obs)
            _obs->end(_post >= 0 ? static_cast<StateId>(_post)
                                 : static_cast<StateId>(_get()));
    }

    /** Report this state on exit instead of re-sampling (needed when
     *  the sampled slot is recycled before the scope closes, e.g. a
     *  cache victim whose way is reallocated to the filling line). */
    void overridePost(StateId s) { _post = static_cast<int>(s); }

  private:
    TransitionObserver *_obs;
    GetState _get;
    int _post = -1;
};

template <typename GetState>
ConformanceScope(TransitionObserver *, Ctrl, NodeId, Addr, PEvent,
                 GetState) -> ConformanceScope<GetState>;

} // namespace pcsim::verify

#endif // PCSIM_VERIFY_OBSERVER_HH
