//! `repro` — the paper's tables, figures and ablations and the §3.8 chaos
//! campaign, each simulated month shared by every view that reads it.
//!
//! ```text
//! repro [VIEW...] [--scale <peers>] [--downloads <n>] [--seed <s>]
//! ```
//!
//! Every view declares the months it reads: the single-month views all
//! read the standard month of [`config_for`], and the sweeps and the chaos
//! campaign add tweaked months whose baseline rows are that same standard
//! month. `repro` simulates each distinct month once, writes
//! `results/<view>.txt` per view (plus `alerts.txt` and the
//! `chaos.timeseries.json` sidecar for `chaos`), and one `results/<month>.metrics.json` /
//! `results/<month>.trace.json` sidecar pair per simulated month. With no
//! view named it renders the default set: two months in all, the standard
//! one and the chaos campaign. Progress goes to stderr.

use netsession_bench::reports;
use netsession_bench::runner::{
    config_for, write_metrics_sidecar, write_trace_sidecar, Cli, ExperimentArgs,
};
use netsession_hybrid::{HybridSim, Scenario, ScenarioConfig, SimOutput};
use std::collections::HashMap;
use std::path::Path;

const USAGE: &str = "\
usage: repro [VIEW...] [--scale <peers>] [--downloads <n>] [--seed <s>]

Simulates each month the views read once, then writes results/<view>.txt
for every view and a <month>.metrics.json / <month>.trace.json sidecar
pair for every simulated month. Defaults: 30000 peers, 40000 downloads,
seed 20121001.

default views (no VIEW given):
  headline table1 table2 table3 table4 fig2 fig3a fig3b fig3c fig4 fig5
  fig6 fig7 fig8 fig9 fig10 fig11 fig12 outcomes mobility chaos
more views (each adds months of its own):
  fig6_sweep ablate_locality ablate_backstop ablate_uploadcap
  ablate_enablefrac ablate_sessions
";

/// Views rendered when none is named: the standard month and the chaos
/// campaign.
const DEFAULT_VIEWS: [&str; 21] = [
    "headline", "table1", "table2", "table3", "table4", "fig2", "fig3a", "fig3b", "fig3c", "fig4",
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "outcomes", "mobility",
    "chaos",
];

/// Views rendered only on request.
const EXTRA_VIEWS: [&str; 6] = [
    "fig6_sweep",
    "ablate_locality",
    "ablate_backstop",
    "ablate_uploadcap",
    "ablate_enablefrac",
    "ablate_sessions",
];

/// One simulated month: its sidecar name and the config behind it.
struct Month {
    name: String,
    config: ScenarioConfig,
}

/// The standard month.
fn standard(args: &ExperimentArgs) -> Month {
    Month {
        name: "month".to_string(),
        config: config_for(args),
    }
}

/// The standard config with `tweak` applied, named `name` — or the
/// standard month itself when the tweak changes nothing, so a sweep's
/// baseline row reuses it instead of simulating it again.
fn variant(args: &ExperimentArgs, name: String, tweak: impl FnOnce(&mut ScenarioConfig)) -> Month {
    let base = standard(args);
    let mut config = base.config.clone();
    tweak(&mut config);
    // `ScenarioConfig` has no `PartialEq`; its `Debug` form prints every
    // field, floats exactly.
    if format!("{config:?}") == format!("{:?}", base.config) {
        base
    } else {
        Month { name, config }
    }
}

/// The months `view` renders from, in the order its renderer reads them.
fn months(view: &str, args: &ExperimentArgs) -> Vec<Month> {
    match view {
        "table4" => Vec::new(),
        "fig6_sweep" => reports::PEERS_RETURNED_SWEEP
            .map(|n| {
                variant(args, format!("peers_returned_{n}"), |c| {
                    c.peers_returned = n
                })
            })
            .into(),
        "ablate_locality" => [true, false]
            .map(|on| {
                let name = if on { "locality_on" } else { "locality_off" };
                variant(args, name.to_string(), |c| {
                    c.locality_aware = on;
                    // The ladder only matters when there are more
                    // candidates than slots; return few peers so
                    // selection is actually selective.
                    c.peers_returned = 8;
                })
            })
            .into(),
        "ablate_backstop" => [true, false]
            .map(|on| {
                let name = if on { "backstop" } else { "no_backstop" };
                variant(args, name.to_string(), |c| c.edge_backstop = on)
            })
            .into(),
        "ablate_uploadcap" => [Some(30), None]
            .map(|cap| {
                let name = cap.map_or("uncapped".to_string(), |n| format!("upload_cap_{n}"));
                variant(args, name, |c| c.per_object_upload_cap = cap)
            })
            .into(),
        "ablate_enablefrac" => reports::ENABLE_FRACTIONS
            .map(|f| {
                let name = format!("enabled_{:.0}", f * 100.0);
                variant(args, name, |c| c.enable_fraction_override = Some(f))
            })
            .into(),
        "ablate_sessions" => reports::SESSION_MODES
            .map(|(_, f)| {
                let name = format!("sessions_{:.0}", f * 100.0);
                variant(args, name, |c| c.session_mode_factor = f)
            })
            .into(),
        "chaos" => vec![
            standard(args),
            variant(args, "chaos".to_string(), |c| {
                c.faults.events = reports::chaos_campaign()
            }),
        ],
        _ => vec![standard(args)],
    }
}

/// Render `view` from its months: the files it writes under `results/`.
fn render(view: &str, args: &ExperimentArgs, m: &[&SimOutput]) -> Vec<(String, String)> {
    let body = match view {
        "headline" => reports::headline(m[0]),
        "table1" => reports::table1(m[0]),
        "table2" => reports::table2(m[0]),
        "table3" => reports::table3(m[0]),
        "table4" => reports::table4(&Scenario::build(config_for(args))),
        "fig2" => reports::fig2(m[0]),
        "fig3a" => reports::fig3a(m[0]),
        "fig3b" => reports::fig3b(m[0]),
        "fig3c" => reports::fig3c(m[0]),
        "fig4" => reports::fig4(m[0]),
        "fig5" => reports::fig5(m[0]),
        "fig6" => reports::fig6(m[0]),
        "fig6_sweep" => reports::fig6_sweep(m),
        "fig7" => reports::fig7(m[0]),
        "fig8" => reports::fig8(m[0]),
        "fig9" => reports::fig9(m[0]),
        "fig10" => reports::fig10(m[0]),
        "fig11" => reports::fig11(m[0]),
        "fig12" => reports::fig12(m[0]),
        "outcomes" => reports::outcomes(m[0]),
        "mobility" => reports::mobility(m[0]),
        "ablate_locality" => reports::ablate_locality(m),
        "ablate_backstop" => reports::ablate_backstop(m),
        "ablate_uploadcap" => reports::ablate_uploadcap(m),
        "ablate_enablefrac" => reports::ablate_enablefrac(m),
        "ablate_sessions" => reports::ablate_sessions(m),
        "chaos" => {
            return vec![
                ("chaos.txt".into(), reports::chaos(m[0], m[1])),
                ("alerts.txt".into(), reports::alerts_txt(m[1])),
                (
                    "chaos.timeseries.json".into(),
                    reports::chaos_timeseries_json(m[1]),
                ),
            ]
        }
        other => unreachable!("unknown view {other}"),
    };
    vec![(format!("{view}.txt"), body)]
}

/// A month's sidecar file stem: its name, plus scale and seed when they
/// are not the defaults, so a small run never overwrites the committed
/// default-scale sidecars.
fn sidecar_stem(name: &str, args: &ExperimentArgs) -> String {
    let d = ExperimentArgs::default();
    if (args.peers, args.downloads, args.seed) == (d.peers, d.downloads, d.seed) {
        name.to_string()
    } else {
        format!("{name}.{}x{}.s{}", args.peers, args.downloads, args.seed)
    }
}

fn main() {
    let mut cli = Cli::new(USAGE);
    let (args, mut views) = ExperimentArgs::parse(&mut cli).unwrap_or_else(|e| cli.fail(&e));
    if let Some(v) = views
        .iter()
        .find(|v| !DEFAULT_VIEWS.contains(&v.as_str()) && !EXTRA_VIEWS.contains(&v.as_str()))
    {
        cli.fail(&format!("unknown view {v}"));
    }
    if views.is_empty() {
        views = DEFAULT_VIEWS.map(String::from).into();
    }

    let plans: Vec<Vec<Month>> = views.iter().map(|v| months(v, &args)).collect();
    // Each month stays in memory until the last view that reads it.
    let mut last_use: HashMap<&str, usize> = HashMap::new();
    for (i, plan) in plans.iter().enumerate() {
        for m in plan {
            last_use.insert(&m.name, i);
        }
    }
    let total = last_use.len();
    let results = Path::new("results");
    std::fs::create_dir_all(results).expect("create results/");
    let mut simulated: HashMap<&str, SimOutput> = HashMap::new();
    let mut count = 0;
    for (i, (view, plan)) in views.iter().zip(&plans).enumerate() {
        for m in plan {
            if simulated.contains_key(m.name.as_str()) {
                continue;
            }
            count += 1;
            eprintln!(
                "# repro: month {count}/{total} `{}` (peers={} downloads={} seed={})",
                m.name, args.peers, args.downloads, args.seed
            );
            let out = HybridSim::run_config(m.config.clone());
            let stem = sidecar_stem(&m.name, &args);
            write_metrics_sidecar(&stem, &out.metrics);
            write_trace_sidecar(&stem, &out.trace);
            simulated.insert(&m.name, out);
        }
        let outs: Vec<&SimOutput> = plan.iter().map(|m| &simulated[m.name.as_str()]).collect();
        for (file, body) in render(view, &args, &outs) {
            let path = results.join(file);
            std::fs::write(&path, body)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!("# repro: wrote {}", path.display());
        }
        simulated.retain(|name, _| last_use[name] > i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_months(views: &[&str]) -> Vec<String> {
        let args = ExperimentArgs::default();
        let mut seen: Vec<(String, String)> = Vec::new();
        for m in views.iter().flat_map(|v| months(v, &args)) {
            let config = format!("{:?}", m.config);
            match seen.iter().find(|(name, _)| *name == m.name) {
                Some((_, c)) => assert_eq!(*c, config, "two configs named {}", m.name),
                None => {
                    assert!(
                        seen.iter().all(|(_, c)| *c != config),
                        "{} duplicates another month",
                        m.name
                    );
                    seen.push((m.name, config));
                }
            }
        }
        seen.into_iter().map(|(name, _)| name).collect()
    }

    #[test]
    fn default_views_simulate_two_months() {
        assert_eq!(distinct_months(&DEFAULT_VIEWS), ["month", "chaos"]);
    }

    #[test]
    fn ablations_share_the_standard_month_as_baseline() {
        let ablations = &EXTRA_VIEWS[1..];
        let names = distinct_months(ablations);
        assert_eq!(names.len(), 12, "{names:?}");
        let args = ExperimentArgs::default();
        for view in ["ablate_backstop", "ablate_uploadcap", "ablate_sessions"] {
            assert_eq!(months(view, &args)[0].name, "month", "{view}");
        }
        let sweep = months("fig6_sweep", &args);
        assert_eq!(sweep.last().unwrap().name, "month");
    }

    #[test]
    fn usage_lists_every_view() {
        for view in DEFAULT_VIEWS.iter().chain(&EXTRA_VIEWS) {
            assert!(
                USAGE.split_whitespace().any(|w| w == *view),
                "{view} missing from USAGE"
            );
        }
    }
}
