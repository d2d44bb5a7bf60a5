//! Shared experiment plumbing: the command-line parser, the standard
//! scenario and the sidecar writers.

use netsession_hybrid::alerts::SeriesDetection;
use netsession_hybrid::{ScaledAlert, ScenarioConfig};
use netsession_logs::SeriesDigest;
use netsession_obs::json::push_str_literal;
use netsession_obs::{MergedSeries, MetricsRegistry, TraceSink};
use netsession_world::population::PopulationConfig;
use netsession_world::workload::WorkloadConfig;

/// The command-line parser behind every bench binary.
///
/// Arguments are `--flag` switches, `--flag <value>` options and bare
/// positionals. `--help`, an unknown flag, a flag missing its value and a
/// value that does not parse are all usage errors: the `try_*` methods
/// return them, and the plain methods print the message and the usage text
/// on stderr and exit with code 2.
pub struct Cli {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// Parse this process's arguments; `usage` is printed on any error.
    pub fn new(usage: &'static str) -> Cli {
        Cli::from_args(usage, std::env::args().skip(1))
    }

    /// Parse the given arguments (program name excluded).
    pub fn from_args(usage: &'static str, args: impl IntoIterator<Item = String>) -> Cli {
        let args: Vec<String> = args.into_iter().collect();
        Cli {
            usage,
            args: args.into_iter(),
        }
    }

    /// The next argument, or an error on `--help`.
    pub fn try_arg(&mut self) -> Result<Option<String>, String> {
        match self.args.next() {
            Some(a) if a == "--help" || a == "-h" => Err(String::new()),
            next => Ok(next),
        }
    }

    /// The value that must follow `flag`, parsed.
    pub fn try_value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self
            .args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
    }

    /// [`Cli::try_arg`], exiting on error.
    pub fn arg(&mut self) -> Option<String> {
        self.try_arg().unwrap_or_else(|e| self.fail(&e))
    }

    /// [`Cli::try_value`], exiting on error.
    pub fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        self.try_value(flag).unwrap_or_else(|e| self.fail(&e))
    }

    /// Print `msg` (if any) and the usage text on stderr; exit with code 2.
    pub fn fail(&self, msg: &str) -> ! {
        if !msg.is_empty() {
            eprintln!("error: {msg}\n");
        }
        eprintln!("{}", self.usage.trim_end());
        std::process::exit(2)
    }
}

/// Scale and seed of the standard month: `--scale`, `--downloads`, `--seed`.
#[derive(Clone, Debug)]
pub struct ExperimentArgs {
    /// Peer population size.
    pub peers: usize,
    /// Downloads over the month.
    pub downloads: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            peers: 30_000,
            downloads: 40_000,
            seed: 20121001,
        }
    }
}

impl ExperimentArgs {
    /// Read `--scale <peers>`, `--downloads <n>` and `--seed <s>`; every
    /// argument that is not a flag comes back as a positional. A zero
    /// `--scale` is a usage error (a month needs a peer); zero downloads
    /// is a valid, empty month.
    pub fn parse(cli: &mut Cli) -> Result<(ExperimentArgs, Vec<String>), String> {
        let mut args = ExperimentArgs::default();
        let mut positionals = Vec::new();
        while let Some(arg) = cli.try_arg()? {
            match arg.as_str() {
                "--scale" => args.peers = cli.try_value(&arg)?,
                "--downloads" => args.downloads = cli.try_value(&arg)?,
                "--seed" => args.seed = cli.try_value(&arg)?,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                _ => positionals.push(arg),
            }
        }
        if args.peers == 0 {
            return Err("--scale must be at least 1 peer".into());
        }
        Ok((args, positionals))
    }
}

/// Build the standard scenario config for experiment args.
pub fn config_for(args: &ExperimentArgs) -> ScenarioConfig {
    ScenarioConfig {
        seed: args.seed,
        population: PopulationConfig {
            peers: args.peers,
            ases: (args.peers / 50).clamp(120, 2_000),
            ..PopulationConfig::default()
        },
        objects: (args.downloads / 12).clamp(250, 20_000),
        workload: WorkloadConfig {
            downloads: args.downloads,
            ..WorkloadConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// Render a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Write a run's metrics snapshot next to the experiment results as
/// `results/<name>.metrics.json`. The snapshot includes the volatile
/// (wall-clock) section for perf inspection, so unlike the reports it is
/// not byte-identical run-to-run.
pub fn write_metrics_sidecar(name: &str, metrics: &MetricsRegistry) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("# metrics sidecar skipped: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.metrics.json"));
    match std::fs::write(&path, metrics.full_snapshot_json()) {
        Ok(()) => eprintln!("# metrics sidecar: {}", path.display()),
        Err(e) => eprintln!("# metrics sidecar skipped: {e}"),
    }
}

/// Write a month's sampled download traces as Chrome trace-event JSON
/// (`results/<name>.trace.json`, loadable in Perfetto / `chrome://tracing`
/// and readable by the `trace_explain` binary). Unlike the metrics
/// sidecar the export is fully deterministic — same seed, same bytes.
pub fn write_trace_sidecar(name: &str, trace: &TraceSink) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("# trace sidecar skipped: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.trace.json"));
    match std::fs::write(&path, trace.export_chrome_json()) {
        Ok(()) => eprintln!("# trace sidecar: {}", path.display()),
        Err(e) => eprintln!("# trace sidecar skipped: {e}"),
    }
}

/// The `netsession-timeseries/1` sidecar both month engines write
/// (`scale.timeseries.json`, `chaos.timeseries.json`): schema tag,
/// recomputable series digest, the merged series, the structured
/// injected-fault log (region indices resolved to the series' group
/// labels), and the replayed detections. Deterministic bytes, so gates
/// diff the files directly.
pub fn timeseries_sidecar_json(
    ts: &MergedSeries,
    alerts: &[ScaledAlert],
    detections: &[SeriesDetection],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"netsession-timeseries/1\",");
    let _ = writeln!(s, "  \"digest\": \"{}\",", SeriesDigest::fingerprint(ts));
    let _ = write!(s, "  \"series\": {},\n  \"alerts\": [", ts.to_json());
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"class\": ");
        push_str_literal(&mut s, a.class);
        let _ = write!(
            s,
            ", \"at_hours\": {}, \"window\": {}, \"region\": ",
            a.at_hours, a.window
        );
        push_str_literal(&mut s, &ts.groups[a.region as usize]);
        let _ = write!(s, ", \"detail\": {}}}", a.detail);
    }
    if !alerts.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"detections\": [");
    for (i, d) in detections.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"region\": ");
        match &d.region {
            Some(r) => push_str_literal(&mut s, r),
            None => s.push_str("null"),
        }
        s.push_str(", \"rule\": ");
        push_str_literal(&mut s, &d.event.rule);
        let _ = write!(
            s,
            ", \"raised\": {}, \"at_us\": {}, \"message\": ",
            d.event.raised, d.event.at_us
        );
        push_str_literal(&mut s, &d.event.message);
        s.push('}');
    }
    if !detections.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_are_standard_scale() {
        let a = ExperimentArgs::default();
        assert_eq!(a.peers, 30_000);
        assert_eq!(a.downloads, 40_000);
    }

    #[test]
    fn config_scales_dependents() {
        let a = ExperimentArgs {
            peers: 5_000,
            downloads: 2_000,
            seed: 1,
        };
        let c = config_for(&a);
        assert_eq!(c.population.peers, 5_000);
        assert_eq!(c.workload.downloads, 2_000);
        assert!(c.population.ases >= 100);
        assert!(c.objects >= 250);
    }

    fn parse(argv: &[&str]) -> Result<(ExperimentArgs, Vec<String>), String> {
        let mut cli = Cli::from_args("usage", argv.iter().map(|a| a.to_string()));
        ExperimentArgs::parse(&mut cli)
    }

    #[test]
    fn parses_flags_and_positionals_in_any_order() {
        let (a, views) = parse(&["fig2", "--scale", "2000", "table1", "--seed", "7"]).unwrap();
        assert_eq!((a.peers, a.downloads, a.seed), (2000, 40_000, 7));
        assert_eq!(views, ["fig2", "table1"]);
    }

    #[test]
    fn help_is_a_usage_error() {
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["fig2", "-h"]).is_err());
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        assert_eq!(
            parse(&["--bogus", "1"]).unwrap_err(),
            "unknown flag --bogus"
        );
    }

    #[test]
    fn dangling_flag_is_a_usage_error() {
        assert_eq!(parse(&["--scale"]).unwrap_err(), "--scale needs a value");
        assert!(parse(&["--downloads", "10", "--seed"]).is_err());
    }

    #[test]
    fn bad_value_is_a_usage_error() {
        assert_eq!(
            parse(&["--scale", "lots"]).unwrap_err(),
            "--scale: bad value \"lots\""
        );
        assert!(parse(&["--seed", "-1"]).is_err());
        assert_eq!(
            parse(&["--scale", "0"]).unwrap_err(),
            "--scale must be at least 1 peer"
        );
        // An empty month is valid; a month with no peers is not.
        assert_eq!(parse(&["--downloads", "0"]).unwrap().0.downloads, 0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.714), "71.4%");
    }
}
