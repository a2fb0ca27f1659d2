/**
 * @file
 * AccessCallback: the continuation a CPU access completes into.
 *
 * Every load or store hands one of these down through Hub::cpuAccess,
 * the cache controller, an MSHR or a parked barrier spinner, and back
 * up inside a completion event. It is 32 bytes, trivially copyable and
 * holds its callable inline: copying it is a memcpy and calling it is
 * one indirect call, with no heap allocation and no type-erasure
 * manager (DESIGN.md, "Hot-path data structures").
 *
 * The callable must therefore be trivially copyable, at most
 * storageBytes large and callable as const: in practice a lambda
 * capturing a few pointers or integers by value, or references by
 * reference. Recursive or owning callbacks (std::function) wrap
 * themselves in a by-reference lambda.
 */

#ifndef PCSIM_CACHE_ACCESS_CALLBACK_HH
#define PCSIM_CACHE_ACCESS_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>

#include "src/sim/types.hh"

namespace pcsim
{

/** Completion callback: delivers the line version that was read or
 *  produced (the data abstraction; see DESIGN.md). */
class AccessCallback
{
  public:
    /** Inline capacity for the callable's captures. */
    static constexpr std::size_t storageBytes = 24;

    AccessCallback() = default;
    AccessCallback(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, AccessCallback> &&
                  !std::is_null_pointer_v<std::decay_t<F>>>>
    AccessCallback(F f)
    {
        static_assert(std::is_trivially_copyable_v<F>,
                      "AccessCallback callables must be trivially "
                      "copyable (capture pointers and values only)");
        static_assert(sizeof(F) <= storageBytes,
                      "AccessCallback callable exceeds its inline "
                      "storage");
        static_assert(alignof(F) <= alignof(std::max_align_t) &&
                          alignof(F) <= storageAlign,
                      "AccessCallback callable is over-aligned");
        static_assert(std::is_invocable_r_v<void, const F &, Version>,
                      "AccessCallback callables take a Version and "
                      "must be callable as const");
        ::new (static_cast<void *>(_storage)) F(f);
        _invoke = [](const void *storage, Version v) {
            (*std::launder(static_cast<const F *>(storage)))(v);
        };
    }

    void operator()(Version v) const { _invoke(_storage, v); }

    explicit operator bool() const { return _invoke != nullptr; }

  private:
    static constexpr std::size_t storageAlign = alignof(void *);

    alignas(storageAlign) unsigned char _storage[storageBytes] = {};
    void (*_invoke)(const void *, Version) = nullptr;
};

static_assert(sizeof(AccessCallback) == 32);
static_assert(std::is_trivially_copyable_v<AccessCallback>);

} // namespace pcsim

#endif // PCSIM_CACHE_ACCESS_CALLBACK_HH
