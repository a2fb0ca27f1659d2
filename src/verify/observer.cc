#include "src/verify/observer.hh"

#include <algorithm>
#include <cstdio>

#include "src/sim/logging.hh"

namespace pcsim::verify
{

void
TransitionObserver::begin(Ctrl c, NodeId node, Addr line, StateId pre,
                          PEvent ev)
{
    Frame f{_spec.find(c, pre, ev), c, node, line, pre, ev};
    if (!f.rule) {
        violation(f,
                  _spec.isImpossible(c, pre, ev)
                      ? "event declared impossible in this state"
                      : "no rule for this (state, event) pair",
                  "");
    }
    _frames.push_back(f);
}

void
TransitionObserver::noteSend(const Message &msg)
{
    if (_frames.empty())
        return;
    const Frame &f = _frames.back();
    if (!f.rule->allowsSend(msg.type)) {
        violation(f, "handler sent a message the spec does not allow",
                  std::string("sent ") + msgTypeName(msg.type));
    }
}

void
TransitionObserver::end(StateId post)
{
    const Frame f = _frames.back();
    _frames.pop_back();
    if (!f.rule->allowsNext(post)) {
        violation(f, "next state outside the spec's allowed set",
                  "went to " + _spec.stateName(f.ctrl, post));
    }
    credit(f.ctrl, f.pre, f.event, post, 1);
}

void
TransitionObserver::credit(Ctrl c, StateId pre, PEvent ev, StateId post,
                           std::uint64_t n)
{
    const std::uint32_t key = (static_cast<std::uint32_t>(c) << 24) |
                              (static_cast<std::uint32_t>(pre) << 16) |
                              (static_cast<std::uint32_t>(ev) << 8) |
                              static_cast<std::uint32_t>(post);
    _counts[key] += n;
}

std::vector<TransitionCount>
TransitionObserver::coverage() const
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> flat(
        _counts.begin(), _counts.end());
    std::sort(flat.begin(), flat.end());
    std::vector<TransitionCount> out;
    out.reserve(flat.size());
    for (const auto &[key, count] : flat) {
        TransitionCount t;
        t.ctrl = static_cast<std::uint8_t>(key >> 24);
        t.state = static_cast<std::uint8_t>(key >> 16);
        t.event = static_cast<std::uint8_t>(key >> 8);
        t.next = static_cast<std::uint8_t>(key);
        t.count = count;
        out.push_back(t);
    }
    return out;
}

void
TransitionObserver::violation(const Frame &f, const char *what,
                              const std::string &detail) const
{
    std::string trace = _trace
                            ? _trace->format(f.line)
                            : std::string("  (message trace disabled)\n");
    panic("conformance violation: %s\n"
          "  controller %s, node %u, line %#llx\n"
          "  state %s, event %s%s%s\n"
          "recent messages for this line:\n%s",
          what, ctrlName(f.ctrl), unsigned(f.node),
          static_cast<unsigned long long>(f.line),
          _spec.stateName(f.ctrl, f.pre).c_str(), eventName(f.event),
          detail.empty() ? "" : ", ", detail.c_str(), trace.c_str());
}

} // namespace pcsim::verify
