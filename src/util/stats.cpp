#include "util/stats.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace sm::util {

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::percentile(double p) const {
  if (sorted_.empty()) throw std::logic_error("percentile of empty CDF");
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_.size() - 1) + 0.5);
  return sorted_[rank];
}

double EmpiricalCdf::max() const {
  if (sorted_.empty()) throw std::logic_error("max of empty CDF");
  return sorted_.back();
}

double EmpiricalCdf::mean() const {
  if (sorted_.empty()) throw std::logic_error("mean of empty CDF");
  return std::accumulate(sorted_.begin(), sorted_.end(), 0.0) /
         static_cast<double>(sorted_.size());
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(
    std::size_t max_points) const {
  std::vector<std::pair<double, double>> pts;
  if (sorted_.empty() || max_points == 0) return pts;
  const std::size_t n = sorted_.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  for (std::size_t i = 0; i < n; i += step) {
    pts.emplace_back(sorted_[i],
                     static_cast<double>(i + 1) / static_cast<double>(n));
  }
  // Close the curve on y, not x: with repeated samples the subsampled last
  // point can sit at x == max with F < 1 (e.g. {1, 1} at max_points 1
  // yields (1, 0.5)), and an x-based guard would leave the CDF short.
  if (pts.back().second != 1.0) {
    if (pts.back().first == sorted_.back()) {
      pts.back().second = 1.0;
    } else {
      pts.emplace_back(sorted_.back(), 1.0);
    }
  }
  return pts;
}

void Counter::add(std::string_view key, std::uint64_t weight) {
  const auto it = counts_.find(key);
  if (it != counts_.end()) {
    it->second += weight;
  } else {
    counts_.emplace(key, weight);
  }
  total_ += weight;
}

std::vector<std::pair<std::string, std::uint64_t>> Counter::top(
    std::size_t n) const {
  std::vector<std::pair<std::string, std::uint64_t>> items(counts_.begin(),
                                                           counts_.end());
  // Keys are distinct, so this order is total: the result does not depend
  // on the map's iteration order.
  const auto heavier = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  n = std::min(n, items.size());
  std::partial_sort(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(n),
                    items.end(), heavier);
  items.resize(n);
  return items;
}

std::uint64_t Counter::count(std::string_view key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

std::size_t Counter::keys_to_cover(double fraction) const {
  if (counts_.empty()) return 0;
  std::vector<std::uint64_t> weights;
  weights.reserve(counts_.size());
  for (const auto& [key, w] : counts_) weights.push_back(w);
  std::sort(weights.begin(), weights.end(), std::greater<>());
  const double target = fraction * static_cast<double>(total_);
  double covered = 0;
  std::size_t used = 0;
  for (const std::uint64_t w : weights) {
    if (covered >= target) break;
    covered += static_cast<double>(w);
    ++used;
  }
  return used;
}

std::vector<std::pair<double, double>> coverage_curve(
    std::vector<std::uint64_t> multiplicities, std::size_t max_points) {
  std::vector<std::pair<double, double>> pts;
  if (multiplicities.empty() || max_points == 0) return pts;
  // Greedily take the heaviest keys first: x = fraction of keys used,
  // y = fraction of items covered.
  std::sort(multiplicities.begin(), multiplicities.end(), std::greater<>());
  const double total_items = static_cast<double>(
      std::accumulate(multiplicities.begin(), multiplicities.end(),
                      std::uint64_t{0}));
  const double total_keys = static_cast<double>(multiplicities.size());
  const std::size_t step =
      std::max<std::size_t>(1, multiplicities.size() / max_points);
  double covered = 0;
  for (std::size_t i = 0; i < multiplicities.size(); ++i) {
    covered += static_cast<double>(multiplicities[i]);
    if (i % step == 0 || i + 1 == multiplicities.size()) {
      pts.emplace_back(static_cast<double>(i + 1) / total_keys,
                       covered / total_items);
    }
  }
  return pts;
}

std::string percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    throw std::invalid_argument("TextTable::add_row: row wider than header");
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  if (headers_.empty()) return {};
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      line += cell;
      line.append(widths[c] - cell.size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  std::size_t rule_len = 0;
  for (const std::size_t w : widths) rule_len += w + 2;
  out.append(rule_len - 2, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace sm::util
