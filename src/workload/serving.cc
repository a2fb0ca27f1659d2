#include "src/workload/serving.hh"

#include <algorithm>
#include <cmath>

namespace pcsim
{

namespace
{

/**
 * Precomputed Zipf CDF over @p n ranks with skew @p s: draw a uniform
 * double and binary-search the table. Rank r (0-based) has
 * probability ~ 1/(r+1)^s.
 */
class ZipfTable
{
  public:
    ZipfTable(unsigned n, double s) : _cdf(n)
    {
        double sum = 0.0;
        for (unsigned r = 0; r < n; ++r) {
            sum += 1.0 / std::pow(double(r + 1), s);
            _cdf[r] = sum;
        }
        for (auto &c : _cdf)
            c /= sum;
    }

    unsigned
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        const auto it =
            std::lower_bound(_cdf.begin(), _cdf.end(), u);
        return static_cast<unsigned>(it == _cdf.end()
                                         ? _cdf.size() - 1
                                         : it - _cdf.begin());
    }

  private:
    std::vector<double> _cdf;
};

} // namespace

KvServingWorkload::KvServingWorkload(unsigned num_cpus, Params p)
    : TraceWorkload("KVServe", num_cpus), _p(p)
{
    const ZipfTable zipf(_p.keyLines, _p.zipfSkew);

    // Init: keys striped across nodes; node n first-touches key lines
    // with k % numCpus == n, so homes are spread like a real store's
    // partitions.
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        auto &t = cpuTrace(cpu);
        for (unsigned k = cpu; k < _p.keyLines; k += num_cpus)
            t.push_back(MemOp::write(keyLine(k)));
        t.push_back(MemOp::barrier());
    }

    // Serving phase: every node runs an independent request stream.
    // Forks MUST happen in ascending node order (see forkNodeRng).
    Rng root(_p.seed);
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        auto &t = cpuTrace(cpu);
        Rng rng = forkNodeRng(root, static_cast<NodeId>(cpu));
        for (unsigned i = 0; i < _p.requestsPerNode; ++i) {
            const unsigned k = zipf.sample(rng);
            if (rng.chance(_p.writeFraction))
                t.push_back(MemOp::write(keyLine(k)));
            else
                t.push_back(MemOp::read(keyLine(k)));
            if (_p.thinkCycles)
                t.push_back(MemOp::think(_p.thinkCycles));
        }
        t.push_back(MemOp::barrier());
    }
}

WorkQueueWorkload::WorkQueueWorkload(unsigned num_cpus, Params p)
    : TraceWorkload("WorkQueue", num_cpus), _p(p)
{
    _producers = _p.producers ? _p.producers
                              : std::max(1u, num_cpus / 4);
    if (_producers >= num_cpus)
        _producers = num_cpus > 1 ? num_cpus - 1 : 1;
    const unsigned consumers =
        num_cpus > _producers ? num_cpus - _producers : 1;

    auto slotLine = [&](unsigned s) {
        return _p.base + static_cast<Addr>(s) * _p.lineBytes;
    };
    // Per-producer queue-head lines live after the slot ring; each is
    // written by one producer and read by every consumer -- exactly the
    // one-producer/many-consumer line the adaptive protocol targets.
    auto headLine = [&](unsigned prod) {
        return _p.base +
               static_cast<Addr>(_p.queueLines + prod) * _p.lineBytes;
    };
    // Per-consumer private ack lines after the heads.
    auto ackLine = [&](unsigned c) {
        return _p.base + static_cast<Addr>(_p.queueLines + _producers +
                                           c) *
                             _p.lineBytes;
    };

    // Init: producers first-touch their slots and head; consumers their
    // ack line.
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        auto &t = cpuTrace(cpu);
        if (cpu < _producers) {
            for (unsigned s = cpu; s < _p.queueLines; s += _producers)
                t.push_back(MemOp::write(slotLine(s)));
            t.push_back(MemOp::write(headLine(cpu)));
        } else {
            t.push_back(MemOp::write(ackLine(cpu - _producers)));
        }
        t.push_back(MemOp::barrier());
    }

    for (unsigned round = 0; round < _p.rounds; ++round) {
        // Produce: each producer refills its slots and publishes its
        // head.
        for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
            auto &t = cpuTrace(cpu);
            if (cpu < _producers) {
                for (unsigned s = cpu; s < _p.queueLines;
                     s += _producers) {
                    t.push_back(MemOp::think(_p.thinkCycles));
                    t.push_back(MemOp::write(slotLine(s)));
                }
                t.push_back(MemOp::write(headLine(cpu)));
            }
            t.push_back(MemOp::barrier());
        }
        // Consume: each consumer polls every head, drains its share of
        // the ring, and acks privately.
        for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
            auto &t = cpuTrace(cpu);
            if (cpu >= _producers) {
                const unsigned c = cpu - _producers;
                for (unsigned prod = 0; prod < _producers; ++prod)
                    t.push_back(MemOp::read(headLine(prod)));
                for (unsigned s = c; s < _p.queueLines; s += consumers) {
                    t.push_back(MemOp::read(slotLine(s)));
                    t.push_back(MemOp::think(_p.thinkCycles));
                }
                t.push_back(MemOp::write(ackLine(c)));
            }
            t.push_back(MemOp::barrier());
        }
    }
}

RcuWorkload::RcuWorkload(unsigned num_cpus, Params p)
    : TraceWorkload("RCU", num_cpus), _p(p)
{
    auto line = [&](unsigned l) {
        return _p.base + static_cast<Addr>(l) * _p.lineBytes;
    };

    // Init: the writer (node 0) first-touches the shared structure.
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        auto &t = cpuTrace(cpu);
        if (cpu == 0) {
            for (unsigned l = 0; l < _p.sharedLines; ++l)
                t.push_back(MemOp::write(line(l)));
        }
        t.push_back(MemOp::barrier());
    }

    // Forks MUST happen in ascending node order (see forkNodeRng).
    Rng root(_p.seed);
    std::vector<Rng> rngs;
    rngs.reserve(num_cpus);
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu)
        rngs.push_back(forkNodeRng(root, static_cast<NodeId>(cpu)));

    unsigned window = 0;
    for (unsigned round = 0; round < _p.rounds; ++round) {
        const bool writeRound =
            _p.writeEvery && round % _p.writeEvery == 0;
        for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
            auto &t = cpuTrace(cpu);
            if (cpu == 0 && writeRound) {
                // Grace period: update a rotating window of lines.
                for (unsigned i = 0; i < _p.linesPerWrite; ++i)
                    t.push_back(MemOp::write(
                        line((window + i) % _p.sharedLines)));
            }
            t.push_back(MemOp::barrier());
            // Read side: every node walks a random subset.
            for (unsigned i = 0; i < _p.readsPerNode; ++i) {
                t.push_back(MemOp::read(line(static_cast<unsigned>(
                    rngs[cpu].below(_p.sharedLines)))));
                if (_p.thinkCycles)
                    t.push_back(MemOp::think(_p.thinkCycles));
            }
            t.push_back(MemOp::barrier());
        }
        if (writeRound)
            window = (window + _p.linesPerWrite) % _p.sharedLines;
    }
}

PubSubWorkload::PubSubWorkload(unsigned num_cpus, Params p)
    : TraceWorkload("PubSub", num_cpus), _p(p)
{
    if (_p.groups == 0)
        _p.groups = 1;

    // Init: the publisher (node 0) first-touches every topic line.
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
        auto &t = cpuTrace(cpu);
        if (cpu == 0) {
            for (unsigned g = 0; g < _p.groups; ++g)
                for (unsigned l = 0; l < _p.linesPerTopic; ++l)
                    t.push_back(MemOp::write(topicLine(g, l)));
        }
        t.push_back(MemOp::barrier());
    }

    // Each round: publish every topic, then every subscriber reads its
    // group's topic -- PCmicro's pattern generalized to K groups.
    for (unsigned round = 0; round < _p.rounds; ++round) {
        for (unsigned cpu = 0; cpu < num_cpus; ++cpu) {
            auto &t = cpuTrace(cpu);
            if (cpu == 0) {
                for (unsigned g = 0; g < _p.groups; ++g)
                    for (unsigned l = 0; l < _p.linesPerTopic; ++l) {
                        t.push_back(MemOp::think(_p.thinkCycles));
                        t.push_back(MemOp::write(topicLine(g, l)));
                    }
            }
            t.push_back(MemOp::barrier());
            if (cpu != 0) {
                const unsigned g = (cpu - 1) % _p.groups;
                for (unsigned l = 0; l < _p.linesPerTopic; ++l) {
                    t.push_back(MemOp::read(topicLine(g, l)));
                    t.push_back(MemOp::think(_p.thinkCycles));
                }
            }
            t.push_back(MemOp::barrier());
        }
    }
}

} // namespace pcsim
