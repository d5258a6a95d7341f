/**
 * @file
 * Lightweight statistics registry.
 *
 * Simulator components register named scalar counters and distributions
 * with a StatSet; harnesses export them after a run.
 */

#ifndef NUPEA_COMMON_STATS_H
#define NUPEA_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace nupea
{

/** A running mean/min/max over samples (e.g., memory latency). */
class Distribution
{
  public:
    /** Record one sample. */
    void
    sample(double value)
    {
        if (count_ == 0 || value < min_)
            min_ = value;
        if (count_ == 0 || value > max_)
            max_ = value;
        sum_ += value;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A named collection of counters and distributions. Lookup creates on
 * first use, so components can record stats without a registration
 * phase.
 */
class StatSet
{
  public:
    /** Get (creating if absent) a scalar counter. */
    std::uint64_t &counter(const std::string &name) { return counters_[name]; }

    /** Get (creating if absent) a distribution. */
    Distribution &dist(const std::string &name) { return dists_[name]; }

    /** Read a counter, 0 if it was never touched. */
    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Distribution> &dists() const
    {
        return dists_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Distribution> dists_;
};

/**
 * Lazily-bound handle to one StatSet counter. The string-keyed map
 * lookup happens once, on first use; after that the hot path pays a
 * null check instead of a map walk (map element references are
 * stable). Binding lazily — instead of at construction — preserves
 * the registry's create-on-first-use contract: a stat that is never
 * touched never appears in the exported set, so switching a call
 * site from `set.counter("x")` to a handle cannot change which rows
 * a run emits. Non-copyable: a copied handle would keep pointing
 * into the original set.
 */
class CounterHandle
{
  public:
    CounterHandle(StatSet &set, std::string name)
        : set_(&set), name_(std::move(name))
    {}

    CounterHandle(const CounterHandle &) = delete;
    CounterHandle &operator=(const CounterHandle &) = delete;

    std::uint64_t &
    value()
    {
        if (!ptr_)
            ptr_ = &set_->counter(name_);
        return *ptr_;
    }

  private:
    StatSet *set_;
    std::string name_;
    std::uint64_t *ptr_ = nullptr;
};

/** Lazily-bound handle to one StatSet distribution (see CounterHandle). */
class DistHandle
{
  public:
    DistHandle(StatSet &set, std::string name)
        : set_(&set), name_(std::move(name))
    {}

    DistHandle(const DistHandle &) = delete;
    DistHandle &operator=(const DistHandle &) = delete;

    Distribution &
    value()
    {
        if (!ptr_)
            ptr_ = &set_->dist(name_);
        return *ptr_;
    }

  private:
    StatSet *set_;
    std::string name_;
    Distribution *ptr_ = nullptr;
};

} // namespace nupea

#endif // NUPEA_COMMON_STATS_H
