/**
 * @file
 * Discrete event simulation kernel.
 *
 * The EventQueue executes callbacks in (tick, sequence) order:
 * sequence numbers break same-tick ties in schedule order, so a
 * simulation run is fully reproducible for a given seed.
 *
 * Same-tick order is also explicit. Every event carries an
 * EventOrder: the append key (2 * tick + phase) of the event that
 * scheduled it, and that event's own key. Events are scheduled in
 * execution order, so each tick's list is sorted by EventOrder and
 * schedule order breaks only exact ties; scheduleAsIf() uses this to
 * insert an event at the position it would hold had some earlier,
 * elided event scheduled it (barrier-spin fast-forward, see
 * src/protocol/spin_watch.hh).
 *
 * Internals (see DESIGN.md, "Simulation kernel internals"): the queue
 * is a two-level calendar. Events less than 4096 ticks ahead of the
 * current tick land in a ring of per-tick FIFO lists of pooled event
 * nodes (append = schedule order, so same-tick FIFO is structural);
 * the horizon rolls with the current tick. Rarer far-future events
 * wait in a (tick, order, seq)-ordered binary heap and migrate into
 * the ring as soon as the current tick brings them inside the
 * horizon. A callback is constructed in place inside a recycled node
 * and never moves afterwards, so the common scheduleIn(delta, lambda)
 * path performs zero heap allocations and reuses cache-warm storage.
 */

#ifndef PCSIM_SIM_EVENT_QUEUE_HH
#define PCSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace pcsim
{

/** Kernel hot-path counters (see RunPerf for the per-run rollup). */
struct EventQueueStats
{
    std::uint64_t executed = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t peakPending = 0;
    /** Callbacks constructed in the node's inline buffer. */
    std::uint64_t inlineCallbacks = 0;
    /** Callbacks that fell back to a heap allocation. */
    std::uint64_t heapCallbacks = 0;
    /** Events scheduled 4096 or more ticks ahead of the current tick
     *  (they wait in the overflow heap). */
    std::uint64_t overflowEvents = 0;
    /** Tick advances that migrated overflow events into the ring. */
    std::uint64_t windowAdvances = 0;
};

/**
 * Same-tick position of an event. @c key is the append key
 * (2 * tick + phase, phase 0 for tick-start events and 1 for normal
 * ones) of the event that scheduled it; @c parent is that event's own
 * key. Within one tick and phase, events execute in ascending
 * (key, parent) order, and in schedule order on exact ties.
 */
struct EventOrder
{
    std::uint64_t key = 0;
    std::uint64_t parent = 0;

    auto operator<=>(const EventOrder &) const = default;
};

/**
 * The central simulation event queue.
 *
 * Components schedule closures at absolute or relative ticks; run()
 * drains the queue in (tick, sequence) order until it is empty, a
 * stop condition triggers, or a tick limit is reached.
 */
class EventQueue
{
  public:
    /** Inline callback capacity per event node: sized for the largest
     *  hot protocol closure (a controller pointer plus one Message, at
     *  most 64 bytes). Larger callables fall back to one heap
     *  allocation. */
    static constexpr std::size_t inlineCallbackBytes = 80;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { destroyPending(); }

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule callable @p f at absolute tick @p when (must be
     *  >= curTick). */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        scheduleImpl(when, std::forward<F>(f), false);
    }

    /**
     * Schedule @p f at tick @p when, ahead of every normal event at
     * that tick. Phase-0 events model "the tick begins" work (the
     * network's arrival drains) whose results must be visible to all
     * same-tick protocol events regardless of schedule order; within
     * the phase they keep FIFO schedule order like normal events.
     */
    template <typename F>
    void
    schedulePhase0(Tick when, F &&f)
    {
        scheduleImpl(when, std::forward<F>(f), true);
    }

    /** Schedule callable @p f @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f)
    {
        schedule(_curTick + delta, std::forward<F>(f));
    }

    /** Append key of a tick and phase: the EventOrder::key an event
     *  scheduled by an event at that position carries. */
    static constexpr std::uint64_t
    appendKey(Tick tick, bool phase0)
    {
        return 2 * tick + (phase0 ? 0 : 1);
    }

    /** Order of the event now executing (of the last one executed,
     *  between runs). */
    EventOrder executing() const { return _curOrder; }

    /** Order a schedule() issued right now stamps on its event. */
    EventOrder
    childOrder() const
    {
        return {appendKey(_curTick, _curPhase0), _curOrder.key};
    }

    /**
     * Schedule normal-phase callable @p f at tick @p when as if an
     * event at @p order had scheduled it: it runs after every event
     * at @p when whose order is <= @p order and before every event
     * whose order is greater. Replaying a chain of elided events
     * this way puts its next real event exactly where the chain
     * would have. The position must lie after the executing event,
     * and @p order must be no later than childOrder(): the elided
     * scheduler ran before now.
     */
    template <typename F>
    void
    scheduleAsIf(Tick when, EventOrder order, F &&f)
    {
        if (when < _curTick ||
            (when == _curTick && !_curPhase0 && order < executing()) ||
            childOrder() < order)
            panic("scheduleAsIf: position (%llu, %llu, %llu) is not "
                  "between the executing event and its children",
                  (unsigned long long)when,
                  (unsigned long long)order.key,
                  (unsigned long long)order.parent);
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = order;
        insert<true>(when, n, false);
    }

    /** Number of events not yet executed. */
    std::size_t
    numPending() const
    {
        return static_cast<std::size_t>(_ringCount) + _overflow.size();
    }

    /** True if nothing remains to execute. */
    bool empty() const { return numPending() == 0; }

    /** Request that run() / step() stop before executing the next
     *  event. run() clears any stale request on entry; step() consumes
     *  a pending request by returning false once without executing. */
    void requestStop() { _stopRequested = true; }

    /** True while a stop request is pending (not yet consumed). */
    bool stopRequested() const { return _stopRequested; }

    /** Tick of the next pending event without executing it; false
     *  when the queue is empty. */
    bool
    peekNextTick(Tick &when) const
    {
        return findNextTick(when);
    }

    /**
     * Drain the queue.
     *
     * @param limit stop (without executing further events) once the
     *              next event's tick exceeds this value.
     * @return number of events executed.
     */
    std::uint64_t
    run(Tick limit = maxTick)
    {
        std::uint64_t executed = 0;
        _stopRequested = false;
        Tick when;
        while (!_stopRequested && findNextTick(when)) {
            if (when > limit)
                break;
            executeOne(when);
            ++executed;
        }
        return executed;
    }

    /**
     * Execute at most one event.
     *
     * @return false when the queue is empty or a stop request was
     *         pending (the request is consumed without executing).
     */
    bool
    step()
    {
        if (_stopRequested) {
            _stopRequested = false;
            return false;
        }
        Tick when;
        if (!findNextTick(when))
            return false;
        executeOne(when);
        return true;
    }

    /** Reset time and drop all pending events (for reuse in tests). */
    void
    reset()
    {
        destroyPending();
        _ringCount = 0;
        _curTick = 0;
        _curPhase0 = false;
        _curOrder = EventOrder{};
        _nextFarSeq = 0;
        _stopRequested = false;
        _stats = EventQueueStats{};
    }

    /** Kernel telemetry accumulated since construction / reset(). */
    const EventQueueStats &stats() const { return _stats; }

    /** Invariant probe (tests): every pending tick's phase-0 and
     *  normal lists are sorted by EventOrder. */
    bool
    sameTickOrderHolds() const
    {
        for (const Slot &s : _slots) {
            for (const EventNode *list : {s.head0, s.head}) {
                for (const EventNode *n = list; n && n->next;
                     n = n->next) {
                    if (n->next->order < n->order)
                        return false;
                }
            }
        }
        return true;
    }

  private:
    /** log2 of the near-future horizon, in ticks. 4096 covers every
     *  latency in Table 1 (hops, DRAM, NI occupancy, retry backoff)
     *  so virtually all protocol events take the ring path. */
    static constexpr unsigned kLogBuckets = 12;
    static constexpr std::size_t kNumBuckets = std::size_t(1)
                                               << kLogBuckets;
    static constexpr Tick kSlotMask = kNumBuckets - 1;
    static constexpr std::size_t kWords = kNumBuckets / 64;
    static constexpr std::size_t kNodesPerSlab = 256;

    /**
     * One pending event. Nodes are recycled through an intrusive
     * free list and never move while armed, so the callable is
     * constructed directly in @c buf and needs no move support.
     */
    struct EventNode
    {
        /** FIFO link within a tick slot / free-list link. */
        EventNode *next;
        void (*invoke)(void *);
        /** Null for trivially-destructible inline callables; frees
         *  the heap copy for oversized ones. */
        void (*dtor)(void *);
        /** Same-tick position (see EventOrder). */
        EventOrder order;
        alignas(std::max_align_t)
            unsigned char buf[inlineCallbackBytes];
    };
    static_assert(sizeof(EventNode) % alignof(std::max_align_t) == 0,
                  "node stride must preserve buffer alignment");
    static_assert(sizeof(EventNode) == 128, "two cache lines per node");

    /** One tick's worth of events: a phase-0 FIFO (drained first)
     *  and the normal FIFO, each in schedule order. */
    struct Slot
    {
        EventNode *head0 = nullptr;
        EventNode *tail0 = nullptr;
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
        bool empty() const { return !head0 && !head; }
    };

    /** An event beyond the horizon, heap-ordered by (when,
     *  order, seq). Real events are scheduled in order, so for them
     *  this is (when, seq); scheduleAsIf events take their place. */
    struct FarEvent
    {
        Tick when;
        EventOrder order;
        std::uint64_t seq;
        EventNode *node;
        bool phase0;
    };

    /** Comparator making std::push_heap/pop_heap a min-heap. */
    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.order != b.order)
                return a.order > b.order;
            return a.seq > b.seq;
        }
    };

    EventNode *
    allocNode()
    {
        if (_freeNodes) {
            EventNode *n = _freeNodes;
            _freeNodes = n->next;
            return n;
        }
        if (_slabUsed == kNodesPerSlab) {
            _slabs.emplace_back(new EventNode[kNodesPerSlab]);
            _slabUsed = 0;
        }
        return &_slabs.back()[_slabUsed++];
    }

    void
    freeNode(EventNode *n)
    {
        n->next = _freeNodes;
        _freeNodes = n;
    }

    /** Construct the callable inside @p n (inline when it fits). */
    template <typename F>
    void
    emplace(EventNode *n, F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "scheduled callable must be invocable");
        if constexpr (sizeof(Fn) <= inlineCallbackBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (n->buf) Fn(std::forward<F>(f));
            n->invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
            if constexpr (std::is_trivially_destructible_v<Fn>)
                n->dtor = nullptr;
            else
                n->dtor = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
            ++_stats.inlineCallbacks;
        } else {
            ::new (n->buf) (Fn *)(new Fn(std::forward<F>(f)));
            n->invoke = [](void *p) { (**static_cast<Fn **>(p))(); };
            n->dtor = [](void *p) { delete *static_cast<Fn **>(p); };
            ++_stats.heapCallbacks;
        }
    }

    template <typename F>
    void
    scheduleImpl(Tick when, F &&f, bool phase0)
    {
        if (when < _curTick)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)_curTick);
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = childOrder();
        insert<false>(when, n, phase0);
    }

    /** File @p n (order already stamped) under tick @p when: appended
     *  to its list, or placed by order when @p Sorted (a template
     *  parameter so the append path stays small enough to inline). */
    template <bool Sorted>
    void
    insert(Tick when, EventNode *n, bool phase0)
    {
        ++_stats.scheduled;
        if (when - _curTick < kNumBuckets) {
            const auto slot = static_cast<std::size_t>(when & kSlotMask);
            if constexpr (Sorted)
                insertSlot(slot, n);
            else
                appendSlot(slot, n, phase0);
            ++_ringCount;
        } else {
            ++_stats.overflowEvents;
            _overflow.push_back(FarEvent{when, n->order, _nextFarSeq++,
                                         n, phase0});
            std::push_heap(_overflow.begin(), _overflow.end(),
                           FarLater{});
        }
        const std::uint64_t pending = _ringCount + _overflow.size();
        if (pending > _stats.peakPending)
            _stats.peakPending = pending;
    }

    void
    appendSlot(std::size_t slot, EventNode *n, bool phase0)
    {
        n->next = nullptr;
        Slot &s = _slots[slot];
        if (s.empty())
            _occupied[slot >> 6] |= std::uint64_t(1) << (slot & 63);
        EventNode *&head = phase0 ? s.head0 : s.head;
        EventNode *&tail = phase0 ? s.tail0 : s.tail;
        if (head)
            tail->next = n;
        else
            head = n;
        tail = n;
    }

    /** Place @p n in @p slot's normal list after every node whose
     *  order is <= its own. */
    void
    insertSlot(std::size_t slot, EventNode *n)
    {
        Slot &s = _slots[slot];
        if (!s.head || !(n->order < s.tail->order)) {
            appendSlot(slot, n, false);
            return;
        }
        if (n->order < s.head->order) {
            n->next = s.head;
            s.head = n;
            return;
        }
        EventNode *p = s.head;
        while (!(n->order < p->next->order))
            p = p->next;
        n->next = p->next;
        p->next = n;
    }

    /** First occupied slot >= from, or -1. */
    int
    nextOccupied(std::size_t from) const
    {
        std::size_t word = from >> 6;
        if (word >= kWords)
            return -1;
        std::uint64_t bits = _occupied[word] &
                             (~std::uint64_t(0) << (from & 63));
        while (true) {
            if (bits)
                return static_cast<int>((word << 6) +
                                        __builtin_ctzll(bits));
            if (++word >= kWords)
                return -1;
            bits = _occupied[word];
        }
    }

    /** Tick of the next event, without executing. The ring holds
     *  every pending event less than a horizon ahead of curTick and
     *  the overflow only later ones, so the ring is authoritative
     *  while non-empty; its scan starts at curTick's slot and wraps
     *  (earlier slots hold the horizon's far end). */
    bool
    findNextTick(Tick &when) const
    {
        if (_ringCount) {
            const auto cur = static_cast<std::size_t>(_curTick & kSlotMask);
            int slot = nextOccupied(cur);
            if (slot < 0)
                slot = nextOccupied(0);
            if (slot < 0)
                panic("event ring count %llu but no occupied slot",
                      (unsigned long long)_ringCount);
            when = _curTick + ((static_cast<Tick>(slot) - cur) & kSlotMask);
            return true;
        }
        if (!_overflow.empty()) {
            when = _overflow.front().when;
            return true;
        }
        return false;
    }

    /** Move every overflow event less than a horizon past @p now (the
     *  tick about to become current) into the ring. Heap order is
     *  (when, order, seq); the ring never accepted those ticks while
     *  they lay beyond the horizon, and any later append to them is
     *  scheduled later, hence carries no earlier order, so each list
     *  stays sorted. */
    void
    migrate(Tick now)
    {
        ++_stats.windowAdvances;
        do {
            std::pop_heap(_overflow.begin(), _overflow.end(),
                          FarLater{});
            const FarEvent fe = _overflow.back();
            _overflow.pop_back();
            appendSlot(static_cast<std::size_t>(fe.when & kSlotMask),
                       fe.node, fe.phase0);
            ++_ringCount;
        } while (!_overflow.empty() &&
                 _overflow.front().when - now < kNumBuckets);
    }

    /** Execute the next event; @p when must come from findNextTick. */
    void
    executeOne(Tick when)
    {
        // Advancing time rolls the horizon forward: events it now
        // covers join the ring before anything at the new tick runs.
        if (when != _curTick && !_overflow.empty() &&
            _overflow.front().when - when < kNumBuckets)
            migrate(when);
        const std::size_t slot =
            static_cast<std::size_t>(when & kSlotMask);
        Slot &s = _slots[slot];
        // Detach before invoking: the callback may append same-tick
        // events to this very slot. Phase-0 events drain first.
        const bool phase0 = s.head0 != nullptr;
        EventNode *&head = phase0 ? s.head0 : s.head;
        EventNode *&tail = phase0 ? s.tail0 : s.tail;
        EventNode *n = head;
        head = n->next;
        if (!head)
            tail = nullptr;
        if (s.empty())
            _occupied[slot >> 6] &=
                ~(std::uint64_t(1) << (slot & 63));
        --_ringCount;
        _curTick = when;
        _curPhase0 = phase0;
        _curOrder = n->order;
        n->invoke(n->buf);
        if (n->dtor)
            n->dtor(n->buf);
        freeNode(n);
        ++_stats.executed;
    }

    /** Destroy every pending callable and recycle its node (reset()
     *  and destruction; pending state may own resources). */
    void
    destroyPending()
    {
        for (Slot &s : _slots) {
            for (EventNode *list : {s.head0, s.head}) {
                for (EventNode *n = list; n;) {
                    EventNode *next = n->next;
                    if (n->dtor)
                        n->dtor(n->buf);
                    freeNode(n);
                    n = next;
                }
            }
            s = Slot{};
        }
        std::fill(std::begin(_occupied), std::end(_occupied), 0);
        for (const FarEvent &fe : _overflow) {
            if (fe.node->dtor)
                fe.node->dtor(fe.node->buf);
            freeNode(fe.node);
        }
        _overflow.clear();
    }

    Slot _slots[kNumBuckets];
    std::uint64_t _occupied[kWords] = {};
    std::uint64_t _ringCount = 0;

    std::vector<FarEvent> _overflow;
    std::uint64_t _nextFarSeq = 0;

    EventNode *_freeNodes = nullptr;
    std::vector<std::unique_ptr<EventNode[]>> _slabs;
    std::size_t _slabUsed = kNodesPerSlab;

    Tick _curTick = 0;
    /** Phase and order of the executing event (the last executed one
     *  between runs); childOrder() derives new events' order. */
    bool _curPhase0 = false;
    EventOrder _curOrder;
    bool _stopRequested = false;
    EventQueueStats _stats;
};

/**
 * Base class for simulation components. Provides access to the owning
 * event queue.
 */
class SimObject
{
  public:
    explicit SimObject(EventQueue &eq) : _eq(eq) {}
    virtual ~SimObject() = default;

    EventQueue &eventQueue() const { return _eq; }
    Tick curTick() const { return _eq.curTick(); }

  protected:
    EventQueue &_eq;
};

} // namespace pcsim

#endif // PCSIM_SIM_EVENT_QUEUE_HH
