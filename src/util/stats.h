// Summary statistics used by the analysis layer and by every bench binary:
// empirical CDFs, percentiles, histograms, Lorenz-style coverage curves, and
// a small fixed-width table printer for paper-vs-measured output.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sm::util {

/// An empirical cumulative distribution over double-valued samples.
///
/// Build once from samples; query fractions/percentiles in O(log n).
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;

  /// Constructs from unsorted samples (copied and sorted).
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Fraction of samples <= x, in [0, 1]. Returns 0 for an empty CDF.
  double at(double x) const;

  /// The p-quantile (p in [0,1]); nearest-rank. Requires non-empty.
  double percentile(double p) const;

  double median() const { return percentile(0.5); }
  double max() const;
  double mean() const;
  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  /// Evenly-indexed (x, F(x)) points suitable for plotting/printing;
  /// at most `max_points` rows.
  std::vector<std::pair<double, double>> curve(std::size_t max_points) const;

 private:
  std::vector<double> sorted_;
};

/// Counts occurrences of string keys and reports the top-N.
class Counter {
 public:
  /// String hashing that also accepts string_views, so add() and count()
  /// look a key up without building a std::string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  using Map =
      std::unordered_map<std::string, std::uint64_t, KeyHash, std::equal_to<>>;

  /// Adds `weight` occurrences of `key`.
  void add(std::string_view key, std::uint64_t weight = 1);

  /// Total weight added across all keys.
  std::uint64_t total() const { return total_; }

  /// Number of distinct keys.
  std::size_t distinct() const { return counts_.size(); }

  /// The `n` most frequent (key, count) pairs, ties broken by key for
  /// determinism.
  std::vector<std::pair<std::string, std::uint64_t>> top(std::size_t n) const;

  /// Count for a specific key (0 if absent).
  std::uint64_t count(std::string_view key) const;

  /// Smallest number of keys whose combined weight reaches
  /// `fraction * total()`.
  std::size_t keys_to_cover(double fraction) const;

  /// Every (key, count) pair, in no particular order.
  const Map& raw() const { return counts_; }

 private:
  Map counts_;
  std::uint64_t total_ = 0;
};

/// Points of a "fraction of keys (x) covering fraction of mass (y)" curve —
/// the exact construction behind the paper's Figure 6 key-sharing plot.
///
/// `multiplicities` holds, per key, how many items carry that key.
std::vector<std::pair<double, double>> coverage_curve(
    std::vector<std::uint64_t> multiplicities, std::size_t max_points);

/// Formats a ratio as a percent string with one decimal, e.g. "87.9%".
std::string percent(double fraction);

/// A minimal fixed-width console table used by bench binaries to print the
/// paper-vs-measured rows.
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; missing cells render empty. Throws
  /// std::invalid_argument if the row is wider than the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with aligned columns, a header rule, and trailing newline.
  /// A table constructed with no headers renders as the empty string.
  std::string str() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sm::util
