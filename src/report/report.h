// A consolidated plain-text report over a dataset: the §4/§5 analyses, the
// §6 linking summary, and the §7 tracking summary, rendered the way the
// sm_survey CLI prints them. Library consumers get one call; the CLI and
// tests share the same formatting.
#pragma once

#include <string>
#include <unordered_map>

#include "analysis/dataset.h"
#include "linking/linker.h"
#include "net/as_database.h"
#include "pki/verifier.h"
#include "tracking/tracker.h"

namespace sm::report {

/// Which report sections to render.
struct ReportOptions {
  bool validity = true;    ///< §4.2 breakdown
  bool longevity = true;   ///< Figures 3-4
  bool diversity = true;   ///< Figure 6, Tables 1 and 3
  bool linking = false;    ///< Tables 5-6, §6.4 (runs the linker)
  bool tracking = false;   ///< §7 (runs linker + tracker)
  std::size_t top_n = 5;   ///< rows in top-issuer / top-AS tables
  /// Revocation statuses per fingerprint (borrowed; e.g.
  /// simworld::WorldResult::revocation.statuses). Non-null adds the
  /// "revocation statuses: invalid vs. valid certs" table.
  const std::unordered_map<scan::CertFingerprint, pki::RevocationStatus,
                           scan::FingerprintHash>* revocation_statuses =
      nullptr;
};

/// Renders the selected sections for `archive`/`index` into one string.
/// The §4/§5 analyses run concurrently on the process-global thread pool;
/// the text is the same for every pool size. Linking/tracking sections
/// construct their own Linker/DeviceTracker.
std::string render_report(const analysis::DatasetIndex& index,
                          const net::AsDatabase& as_db,
                          const ReportOptions& options = {});

}  // namespace sm::report
