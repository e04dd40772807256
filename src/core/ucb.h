#ifndef MAB_CORE_UCB_H
#define MAB_CORE_UCB_H

#include <limits>
#include <vector>

#include "core/mab_policy.h"

namespace mab {

/**
 * The Upper Confidence Bound bandit algorithm (Table 3, column b).
 *
 * Selects the arm with the highest potential
 *     r_i + c * sqrt(ln(n_total) / n_i),
 * so rarely-tried arms receive an exploration bonus that decays as
 * evidence accumulates. The exploration constant c trades off
 * exploration against exploitation.
 */
class Ucb : public MabPolicy
{
  public:
    explicit Ucb(const MabConfig &config);

    std::string name() const override { return "UCB"; }

    /**
     * Potential of @p arm: average reward plus exploration bonus. The
     * scalar reference the score kernel is tested against bit for bit.
     */
    double potential(ArmId arm) const;

    /** The UCB potentials — what nextArm() actually maximizes. */
    std::vector<double> selectionScores() const override;

  protected:
    ArmId nextArm() override;

  private:
    /** Write every arm's potential(i) into @p out, two arms per SSE2
     *  instruction; bit-identical to the scalar expression. */
    void scoreArms(double *out) const;

    /** ln(max(n_total, 1)), recomputed only when n_total changes. */
    double logTotal() const;

    std::vector<double> scores_; ///< nextArm()'s score row
    mutable double logKey_ = std::numeric_limits<double>::quiet_NaN();
    mutable double logTotal_ = 0.0;
};

} // namespace mab

#endif // MAB_CORE_UCB_H
