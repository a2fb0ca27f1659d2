/**
 * @file
 * Discrete event simulation kernel.
 *
 * The EventQueue executes callbacks in (tick, order, sequence)
 * order: sequence numbers break exact ties in schedule order, so a
 * simulation run is fully reproducible for a given seed.
 *
 * Same-tick order is also explicit. Every event carries an
 * EventOrder: the append key (2 * tick + 1) of the event that
 * scheduled it, and that event's own key. Each tick's list is kept
 * sorted by EventOrder, and schedule order breaks only exact ties.
 * Events scheduled by running events arrive in that order anyway;
 * scheduleAt() and scheduleAsIf() name a position instead: the
 * network books a delivery at its arrival's tick-start position when
 * the message is sent (src/net/network.hh), and the barrier-spin
 * fast-forward re-inserts an elided event where its elided scheduler
 * would have put it (src/protocol/spin_watch.hh).
 *
 * Internals (see DESIGN.md, "Simulation kernel internals"): the queue
 * is a two-level calendar. Events less than 4096 ticks ahead of the
 * current tick land in a ring of per-tick lists of pooled event
 * nodes, sorted by order with FIFO ties; the horizon rolls with the
 * current tick. Rarer far-future events wait in a (tick, order,
 * seq)-ordered binary heap and migrate into the ring as soon as the
 * current tick brings them inside the horizon. A callback is
 * constructed in place inside a recycled node and never moves
 * afterwards, so the common scheduleIn(delta, lambda) path performs
 * zero heap allocations and reuses cache-warm storage.
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
 * (2 * tick + 1) of the event that scheduled it; @c parent is that
 * event's own key. Within one tick, events execute in ascending
 * (key, parent) order, and in schedule order on exact ties. An even
 * key 2 * tick names the start of that tick: it sorts after every
 * event scheduled before the tick and before every event scheduled
 * at it (network deliveries, see EventQueue::scheduleAt).
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
 * drains the queue in (tick, order, sequence) order until it is
 * empty, a stop condition triggers, or a tick limit is reached.
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
        if (when < _curTick)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when, (unsigned long long)_curTick);
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = childOrder();
        insert(when, n);
    }

    /**
     * Schedule @p f at future tick @p when with the explicit same-tick
     * position @p order: it runs after every event at @p when whose
     * order is <= @p order, and before every event whose order is
     * greater, whenever those were scheduled. The network books each
     * delivery this way when its message is sent, at
     * {appendKey(arrive, true), rank}. Panics unless @p when lies
     * after the current tick.
     */
    template <typename F>
    void
    scheduleAt(Tick when, EventOrder order, F &&f)
    {
        if (when <= _curTick)
            panic("scheduleAt: tick %llu is not after the current tick "
                  "%llu",
                  (unsigned long long)when, (unsigned long long)_curTick);
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = order;
        insert(when, n);
    }

    /** Schedule callable @p f @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f)
    {
        schedule(_curTick + delta, std::forward<F>(f));
    }

    /** Append key of @p tick: the EventOrder::key an event scheduled
     *  by an event at that tick carries (odd), or with @p tick_start
     *  the even key of the tick's start, which sorts before those. */
    static constexpr std::uint64_t
    appendKey(Tick tick, bool tick_start)
    {
        return 2 * tick + (tick_start ? 0 : 1);
    }

    /** Order of the event now executing (of the last one executed,
     *  between runs). */
    EventOrder executing() const { return _curOrder; }

    /** Order a schedule() issued right now stamps on its event. */
    EventOrder
    childOrder() const
    {
        return {appendKey(_curTick, false), _curOrder.key};
    }

    /**
     * Schedule callable @p f at tick @p when as if an event at
     * @p order had scheduled it: it runs after every event at @p when
     * whose order is <= @p order and before every event whose order
     * is greater. Replaying a chain of elided events this way puts
     * its next real event exactly where the chain would have. The
     * position must lie after the executing event, and @p order must
     * be no later than childOrder(): the elided scheduler ran before
     * now.
     */
    template <typename F>
    void
    scheduleAsIf(Tick when, EventOrder order, F &&f)
    {
        if (when < _curTick ||
            (when == _curTick && order < executing()) ||
            childOrder() < order)
            panic("scheduleAsIf: position (%llu, %llu, %llu) is not "
                  "between the executing event and its children",
                  (unsigned long long)when,
                  (unsigned long long)order.key,
                  (unsigned long long)order.parent);
        EventNode *n = allocNode();
        emplace(n, std::forward<F>(f));
        n->order = order;
        insert(when, n);
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
        _curOrder = EventOrder{};
        _nextFarSeq = 0;
        _stopRequested = false;
        _stats = EventQueueStats{};
    }

    /** Kernel telemetry accumulated since construction / reset(). */
    const EventQueueStats &stats() const { return _stats; }

    /** Invariant probe (tests): every pending tick's list is sorted
     *  by EventOrder. */
    bool
    sameTickOrderHolds() const
    {
        for (const Slot &s : _slots) {
            for (const EventNode *n = s.head; n && n->next; n = n->next) {
                if (n->next->order < n->order)
                    return false;
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
        /** Link within a tick slot / free-list link. */
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

    /** One tick's worth of events, sorted by order (FIFO ties). */
    struct Slot
    {
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
    };

    /** An event beyond the horizon, heap-ordered by (when,
     *  order, seq). Events scheduled by running events arrive in
     *  order, so for them this is (when, seq); scheduleAt and
     *  scheduleAsIf events take their place. */
    struct FarEvent
    {
        Tick when;
        EventOrder order;
        std::uint64_t seq;
        EventNode *node;
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

    /** File @p n (order already stamped) under tick @p when, after
     *  every pending event there whose order is <= its own. */
    void
    insert(Tick when, EventNode *n)
    {
        ++_stats.scheduled;
        if (when - _curTick < kNumBuckets) {
            const auto slot = static_cast<std::size_t>(when & kSlotMask);
            Slot &s = _slots[slot];
            // Most events sort last: append inline, walk out of line.
            if (!s.head || !(n->order < s.tail->order))
                appendSlot(slot, n);
            else
                insertSorted(s, n);
            ++_ringCount;
        } else {
            ++_stats.overflowEvents;
            _overflow.push_back(FarEvent{when, n->order, _nextFarSeq++, n});
            std::push_heap(_overflow.begin(), _overflow.end(),
                           FarLater{});
        }
        const std::uint64_t pending = _ringCount + _overflow.size();
        if (pending > _stats.peakPending)
            _stats.peakPending = pending;
    }

    void
    appendSlot(std::size_t slot, EventNode *n)
    {
        n->next = nullptr;
        Slot &s = _slots[slot];
        if (s.head) {
            s.tail->next = n;
        } else {
            _occupied[slot >> 6] |= std::uint64_t(1) << (slot & 63);
            s.head = n;
        }
        s.tail = n;
    }

    /** Place @p n inside @p s's non-empty list, whose tail's order
     *  exceeds its own: after every node whose order is <= its own. */
    [[gnu::noinline]] static void
    insertSorted(Slot &s, EventNode *n)
    {
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
     *  (when, order, seq) and the ring never accepted those ticks
     *  while they lay beyond the horizon, so appending keeps each
     *  list sorted; later inserts place themselves by order. */
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
                       fe.node);
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
        // Detach before invoking: the callback may add same-tick
        // events to this very slot.
        EventNode *n = s.head;
        s.head = n->next;
        if (!s.head) {
            s.tail = nullptr;
            _occupied[slot >> 6] &=
                ~(std::uint64_t(1) << (slot & 63));
        }
        --_ringCount;
        _curTick = when;
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
            for (EventNode *n = s.head; n;) {
                EventNode *next = n->next;
                if (n->dtor)
                    n->dtor(n->buf);
                freeNode(n);
                n = next;
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
    /** Order of the executing event (the last executed one between
     *  runs); childOrder() derives new events' order. */
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
