/**
 * @file
 * Lightweight statistics framework: named scalar counters, averages and
 * histograms collected into a registry so the benches can report them
 * uniformly.
 */

#ifndef EMC_COMMON_STATS_HH
#define EMC_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace emc
{

/** A running scalar statistic (count or accumulated value). */
class Scalar
{
  public:
    void add(double v = 1.0) { value_ += v; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(value_);
    }

  private:
    double value_ = 0.0;
};

/** A running average: total / samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        total_ += v;
        ++count_;
    }

    double mean() const { return count_ ? total_ / count_ : 0.0; }
    double total() const { return total_; }
    std::uint64_t samples() const { return count_; }
    void reset() { total_ = 0.0; count_ = 0; }

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(total_);
        ar.io(count_);
    }

  private:
    double total_ = 0.0;
    std::uint64_t count_ = 0;
};

/** A fixed-bucket histogram over [0, bucket_width * buckets). */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 32, double bucket_width = 1.0)
        : width_(bucket_width), counts_(buckets, 0), overflow_(0)
    {}

    void
    sample(double v)
    {
        total_ += v;
        ++samples_;
        if (v > max_)
            max_ = v;
        auto idx = static_cast<std::size_t>(v / width_);
        if (idx < counts_.size())
            ++counts_[idx];
        else
            ++overflow_;
    }

    double mean() const { return samples_ ? total_ / samples_ : 0.0; }
    std::uint64_t samples() const { return samples_; }
    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    std::size_t buckets() const { return counts_.size(); }
    double bucketWidth() const { return width_; }

    /** Largest sample seen since the last reset (0 with no samples). */
    double maxSample() const { return max_; }

    /**
     * Estimate the @p q quantile (q in [0, 1]) from the buckets: the
     * midpoint of the bucket holding the rank-max(1, floor(q *
     * samples)) sample, clamped to the largest recorded sample so an
     * estimate never exceeds every sample. A rank that lands past the
     * last bucket reports the largest recorded sample instead of
     * silently clamping to the histogram range.
     */
    double
    percentile(double q) const
    {
        if (samples_ == 0)
            return 0.0;
        const std::uint64_t want = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   q * static_cast<double>(samples_)));
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            seen += counts_[b];
            if (seen >= want)
                return std::min((static_cast<double>(b) + 0.5) * width_,
                                max_);
        }
        return max_;
    }

    void
    reset()
    {
        for (auto &c : counts_)
            c = 0;
        overflow_ = 0;
        total_ = 0;
        samples_ = 0;
        max_ = 0.0;
    }

    /** Checkpoint counts and accumulators (width/shape is config). */
    template <class A>
    void
    ser(A &ar)
    {
        ar.io(counts_);
        ar.io(overflow_);
        ar.io(total_);
        ar.io(samples_);
        ar.io(max_);
    }

  private:
    double width_;  // ckpt-skip: (bucket width is config)
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_;
    double total_ = 0.0;
    std::uint64_t samples_ = 0;
    double max_ = 0.0;
};

/**
 * A flat name -> value registry the System fills at the end of a run.
 * Keeping it a plain map keeps the bench harnesses trivial.
 */
class StatDump
{
  public:
    void put(const std::string &name, double v) { values_[name] = v; }

    double
    get(const std::string &name, double dflt = 0.0) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? dflt : it->second;
    }

    bool has(const std::string &name) const { return values_.count(name); }

    const std::map<std::string, double> &all() const { return values_; }

    /** Render "name = value" lines, one per stat, sorted by name. */
    std::string format() const;

    /** Render as a flat JSON object (machine-readable export). */
    std::string toJson() const;

  private:
    std::map<std::string, double> values_;
};

} // namespace emc

#endif // EMC_COMMON_STATS_HH
