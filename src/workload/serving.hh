/**
 * @file
 * The "serving" workload family: datacenter-shaped traffic.
 *
 * Where the Table 2 suite reproduces the paper's scientific kernels,
 * these generators model the sharing patterns of a machine serving
 * millions of independent request streams over shared state -- the
 * regimes the ROADMAP's "heavy traffic" north star cares about and
 * the paper never measured:
 *
 *  - KVServe:   key-value store with Zipf hot-key skew. Keys are
 *               striped across home nodes; every node runs an
 *               independent request stream (deterministic per-node
 *               RNG fork) that mostly reads, rarely writes.
 *  - WorkQueue: M producers feed N consumers through shared queue
 *               lines; per-producer head lines fan out to every
 *               consumer while each work item is consumed once.
 *  - RCU:       read-mostly shared structure; one stable rare writer,
 *               massive reader fan-out between grace periods.
 *  - PubSub:    one publisher, K subscriber groups on disjoint topic
 *               lines -- the paper's producer-consumer pattern
 *               generalized to group fan-out.
 *
 * All four are deterministic (seeded, per-node streams via
 * forkNodeRng) and keep barrier arrivals balanced across nodes at any
 * machine size, so they run unchanged from 16 to 1024+ nodes.
 */

#ifndef PCSIM_WORKLOAD_SERVING_HH
#define PCSIM_WORKLOAD_SERVING_HH

#include <string>
#include <vector>

#include "src/workload/workload.hh"

namespace pcsim
{

/** Key-value serving with Zipf-distributed line popularity. */
class KvServingWorkload : public TraceWorkload
{
  public:
    struct Params
    {
        unsigned keyLines = 512;   ///< distinct key lines
        /** Zipf skew s: P(rank r) ~ 1/r^s. 0 = uniform; ~0.99 is the
         *  classic hot-key distribution. */
        double zipfSkew = 0.99;
        unsigned requestsPerNode = 400;
        double writeFraction = 0.05; ///< updates among requests
        unsigned thinkCycles = 12;   ///< request processing time
        std::uint64_t seed = 1234;
        Addr base = 0x70000000ull;
        std::uint32_t lineBytes = 128;
    };

    explicit KvServingWorkload(unsigned num_cpus)
        : KvServingWorkload(num_cpus, Params{})
    {
    }
    KvServingWorkload(unsigned num_cpus, Params p);

    Addr keyLine(unsigned k) const
    {
        return _p.base + static_cast<Addr>(k) * _p.lineBytes;
    }

  private:
    Params _p;
};

/** M producers feeding N consumers through shared queue lines. */
class WorkQueueWorkload : public TraceWorkload
{
  public:
    struct Params
    {
        /** Producer nodes (the first @p producers ids); 0 = numCpus/4,
         *  at least 1. Consumers are the remaining nodes. */
        unsigned producers = 0;
        unsigned queueLines = 64; ///< ring of work-item lines
        unsigned rounds = 24;
        unsigned thinkCycles = 16;
        Addr base = 0x74000000ull;
        std::uint32_t lineBytes = 128;
    };

    explicit WorkQueueWorkload(unsigned num_cpus)
        : WorkQueueWorkload(num_cpus, Params{})
    {
    }
    WorkQueueWorkload(unsigned num_cpus, Params p);

    unsigned numProducers() const { return _producers; }

  private:
    Params _p;
    unsigned _producers = 0;
};

/** RCU-style read-mostly structure: rare writer, reader fan-out. */
class RcuWorkload : public TraceWorkload
{
  public:
    struct Params
    {
        unsigned sharedLines = 48; ///< the read-mostly structure
        unsigned rounds = 24;
        unsigned writeEvery = 8;   ///< writer round period
        unsigned linesPerWrite = 4;
        unsigned readsPerNode = 12; ///< reads per node per round
        unsigned thinkCycles = 10;
        std::uint64_t seed = 4321;
        Addr base = 0x78000000ull;
        std::uint32_t lineBytes = 128;
    };

    explicit RcuWorkload(unsigned num_cpus)
        : RcuWorkload(num_cpus, Params{})
    {
    }
    RcuWorkload(unsigned num_cpus, Params p);

  private:
    Params _p;
};

/** One publisher, K subscriber groups on disjoint topic lines. */
class PubSubWorkload : public TraceWorkload
{
  public:
    struct Params
    {
        unsigned groups = 4;
        unsigned linesPerTopic = 8;
        unsigned rounds = 24;
        unsigned thinkCycles = 12;
        Addr base = 0x7C000000ull;
        std::uint32_t lineBytes = 128;
    };

    explicit PubSubWorkload(unsigned num_cpus)
        : PubSubWorkload(num_cpus, Params{})
    {
    }
    PubSubWorkload(unsigned num_cpus, Params p);

    Addr topicLine(unsigned group, unsigned l) const
    {
        return _p.base +
               (static_cast<Addr>(group) * _p.linesPerTopic + l) *
                   _p.lineBytes;
    }

  private:
    Params _p;
};

} // namespace pcsim

#endif // PCSIM_WORKLOAD_SERVING_HH
