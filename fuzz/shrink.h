#ifndef MAB_FUZZ_SHRINK_H
#define MAB_FUZZ_SHRINK_H

#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace mab::fuzz {

/** Halve @p len in place if it is above @p floor; false once it is
 *  not (a shrink halving step). */
template <typename T>
bool
halveAbove(T &len, std::type_identity_t<T> floor)
{
    if (len <= floor)
        return false;
    len /= 2;
    return true;
}

/**
 * Shrink a case that @p fails, the loop every domain but the cache
 * (ddmin over its op stream) uses:
 *  - a case that does not fail comes back unchanged;
 *  - each halving, in order, is applied while the halved case still
 *    fails; it returns false once its length is at its floor;
 *  - each knob, in order, is tried once on the result and kept only
 *    if the case still fails.
 */
template <typename Case>
Case
shrinkCase(
    Case cur,
    const std::function<bool(const std::type_identity_t<Case> &)> &fails,
    const std::vector<std::function<bool(std::type_identity_t<Case> &)>>
        &halvings,
    const std::vector<std::function<void(std::type_identity_t<Case> &)>>
        &knobs)
{
    if (!fails(cur))
        return cur;
    for (const auto &halve : halvings) {
        while (true) {
            Case trial = cur;
            if (!halve(trial) || !fails(trial))
                break;
            cur = std::move(trial);
        }
    }
    for (const auto &knob : knobs) {
        Case trial = cur;
        knob(trial);
        if (fails(trial))
            cur = std::move(trial);
    }
    return cur;
}

} // namespace mab::fuzz

#endif // MAB_FUZZ_SHRINK_H
