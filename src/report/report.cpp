#include "report/report.h"

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <iterator>
#include <optional>

#include "analysis/diversity.h"
#include "analysis/longevity.h"
#include "analysis/revocation.h"
#include "util/thread_pool.h"

namespace sm::report {

using namespace sm::analysis;

namespace {

void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  out += buffer;
}

}  // namespace

std::string render_report(const analysis::DatasetIndex& index,
                          const net::AsDatabase& as_db,
                          const ReportOptions& options) {
  const scan::ScanArchive& archive = index.archive();

  // The §4/§5 analyses are independent reads of the dataset: compute the
  // selected ones concurrently into slots, then format them in order.
  std::optional<ValidityBreakdown> validity;
  std::optional<ValidityPeriods> periods;
  std::optional<Lifetimes> lifetimes;
  std::optional<KeyDiversity> keys;
  std::optional<IssuerDiversity> issuers;
  std::optional<TopAses> top_ases;
  std::optional<RevocationBreakdown> revocation;
  const std::function<void()> analyses[] = {
      [&] {
        if (options.validity) validity = compute_validity_breakdown(archive);
      },
      [&] {
        if (options.longevity) periods = compute_validity_periods(archive);
      },
      [&] {
        if (options.longevity) lifetimes = compute_lifetimes(index);
      },
      [&] {
        if (options.diversity) keys = compute_key_diversity(archive);
      },
      [&] {
        if (options.diversity) {
          issuers = compute_issuer_diversity(archive, options.top_n);
        }
      },
      [&] {
        if (options.diversity) {
          top_ases = compute_top_ases(index, as_db, options.top_n);
        }
      },
      [&] {
        if (options.revocation_statuses != nullptr) {
          revocation = compute_revocation_breakdown(
              archive, *options.revocation_statuses, options.top_n);
        }
      },
  };
  util::ThreadPool::global().parallel_for(std::size(analyses), 1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) analyses[i]();
                    });

  std::string out;
  if (validity) {
    const ValidityBreakdown& vb = *validity;
    out += "-- validity (paper 4.2) --\n";
    appendf(out,
            "certificates %llu | invalid %s | self-signed %s | untrusted %s "
            "| other %s | transvalid %llu\n",
            static_cast<unsigned long long>(vb.total_certs),
            util::percent(vb.invalid_fraction()).c_str(),
            util::percent(vb.invalid_certs == 0
                              ? 0.0
                              : static_cast<double>(vb.self_signed) /
                                    static_cast<double>(vb.invalid_certs))
                .c_str(),
            util::percent(vb.invalid_certs == 0
                              ? 0.0
                              : static_cast<double>(vb.untrusted_issuer) /
                                    static_cast<double>(vb.invalid_certs))
                .c_str(),
            util::percent(vb.invalid_certs == 0
                              ? 0.0
                              : static_cast<double>(vb.other_invalid) /
                                    static_cast<double>(vb.invalid_certs))
                .c_str(),
            static_cast<unsigned long long>(vb.transvalid));
  }

  if (options.longevity) {
    const ValidityPeriods& vp = *periods;
    const Lifetimes& lt = *lifetimes;
    out += "\n-- longevity (figures 3-4) --\n";
    appendf(out,
            "validity period median: valid %.2fy, invalid %.1fy "
            "(negative %s)\n",
            vp.valid_days.empty() ? 0.0 : vp.valid_days.median() / 365,
            vp.invalid_days.empty() ? 0.0 : vp.invalid_days.median() / 365,
            util::percent(vp.invalid_negative_fraction).c_str());
    appendf(out,
            "lifetime median: valid %.0fd, invalid %.0fd (single-scan %s)\n",
            lt.valid_days.empty() ? 0.0 : lt.valid_days.median(),
            lt.invalid_days.empty() ? 0.0 : lt.invalid_days.median(),
            util::percent(lt.invalid_single_scan_fraction).c_str());
  }

  if (options.diversity) {
    out += "\n-- key diversity (figure 6) --\n";
    appendf(out, "invalid certs sharing a key: %s (top key %s of invalid)\n",
            util::percent(keys->invalid_shared_fraction).c_str(),
            util::percent(keys->top_invalid_key_share).c_str());
    out += "\n-- top invalid issuers (table 1) --\n";
    for (const IssuerRow& row : issuers->top_invalid) {
      appendf(out, "  %-40s %llu\n", row.issuer.c_str(),
              static_cast<unsigned long long>(row.certs));
    }
    out += "\n-- top invalid ASes (table 3) --\n";
    for (const TopAsRow& row : top_ases->invalid) {
      appendf(out, "  %-46s %llu\n", row.label.c_str(),
              static_cast<unsigned long long>(row.certs));
    }
  }

  if (revocation) {
    out += "\n-- revocation (CRL/OCSP ecosystem) --\n";
    out += render_revocation_table(*revocation);
  }

  if (options.linking || options.tracking) {
    const linking::Linker linker(index);
    const linking::IterativeResult linked = linker.link_iteratively();
    if (options.linking) {
      out += "\n-- linking (6.4.3 / 6.4.4) --\n";
      const linking::LinkingGain gain = linker.compare_with_original(linked);
      appendf(out, "eligible %llu | linked %llu (%s) | groups %zu\n",
              static_cast<unsigned long long>(linker.eligible_count()),
              static_cast<unsigned long long>(linked.linked_certs),
              util::percent(linker.eligible_count() == 0
                                ? 0.0
                                : static_cast<double>(linked.linked_certs) /
                                      static_cast<double>(
                                          linker.eligible_count()))
                  .c_str(),
              linked.groups.size());
      appendf(out,
              "single-scan %s -> %s | mean lifetime %.1f -> %.1f days\n",
              util::percent(gain.single_scan_fraction_before).c_str(),
              util::percent(gain.single_scan_fraction_after).c_str(),
              gain.mean_lifetime_before_days, gain.mean_lifetime_after_days);
    }
    if (options.tracking) {
      const tracking::DeviceTracker tracker(index, linker, linked, as_db);
      const tracking::TrackableSummary summary = tracker.summary();
      const tracking::MovementStats movement = tracker.movement();
      out += "\n-- tracking (7.2 / 7.3) --\n";
      appendf(out, "trackable %llu -> %llu (+%s) | movers %llu | "
                   "country-crossers %llu\n",
              static_cast<unsigned long long>(
                  summary.trackable_without_linking),
              static_cast<unsigned long long>(summary.trackable_with_linking),
              util::percent(summary.improvement()).c_str(),
              static_cast<unsigned long long>(
                  movement.devices_with_as_change),
              static_cast<unsigned long long>(
                  movement.devices_crossing_countries));
    }
  }
  return out;
}

}  // namespace sm::report
