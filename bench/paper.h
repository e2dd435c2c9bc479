// The paper's reproductions, one function per evaluation section. Each
// prints its section's tables and figures (paper vs measured) in paper
// order; the google-benchmark timings of the kernels behind them register
// themselves. bench_paper.cpp runs them all.
#pragma once

namespace sm::bench {

void report_section4();  ///< Figure 1, §4.2, Figure 2
void report_section5();  ///< Figures 3-8, Tables 1-4
void report_section6();  ///< Tables 5-6, Figures 9-10, §6.4.4, ablations
void report_section7();  ///< §7.2-7.3, Figure 11

}  // namespace sm::bench
