// Figure 4: single-pixel attacks guided by power information.
//
// Test accuracy of the deployed network as a function of attack strength
// (0..10) for the five methods RP / + / − / RD / Worst, per dataset and
// output configuration. The power-guided methods use the 1-norm ranking
// probed from the deployed crossbar.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xbarsec/attack/single_pixel.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/core/oracle.hpp"
#include "xbarsec/core/victim.hpp"

namespace xbarsec::core {

struct Fig4Options {
    std::vector<double> strengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::uint64_t seed = 33;
    /// Evaluate on at most this many test samples (0 = all).
    std::size_t eval_limit = 0;
    /// Score attacks by querying the attacker-facing oracle (counted, and
    /// subject to its session policy — detector screening, budgets)
    /// instead of the experimenter's direct hardware evaluation.
    bool evaluate_via_oracle = false;
};

/// Accuracy series for one attack method.
struct Fig4Series {
    attack::SinglePixelMethod method;
    std::vector<double> accuracy;  ///< aligned with Fig4Options::strengths
};

struct Fig4Result {
    std::string label;
    std::vector<double> strengths;
    std::vector<Fig4Series> series;
    double clean_accuracy = 0.0;  ///< accuracy at strength 0 (sanity anchor)
};

/// Runs the full method × strength sweep for one configuration (trains
/// and deploys a fresh victim, then delegates to run_fig4_on).
Fig4Result run_fig4_config(const data::DataSplit& split, const std::string& dataset_name,
                           const OutputConfig& output, const VictimConfig& base_config,
                           const Fig4Options& options);

/// Runs the sweep against an already-deployed victim. `attacker` is the
/// attacker-facing oracle — probed for the 1-norm ranking, and also used
/// to score attacks when options.evaluate_via_oracle; `hardware` supplies
/// white-box gradients (WorstCase reference) and the direct evaluation
/// path. Pass the top of a decorator stack as `attacker` to measure a
/// defended deployment.
Fig4Result run_fig4_on(Oracle& attacker, const xbar::CrossbarNetwork& hardware,
                       const data::Dataset& eval_set, const std::string& label,
                       const Fig4Options& options);

/// Markdown rendering: one row per strength, one column per method.
Table render_fig4(const Fig4Result& result);

}  // namespace xbarsec::core
