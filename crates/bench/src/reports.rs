//! The paper's tables and figures as pure renderers.
//!
//! One function per `repro` view. Each takes the simulated month(s) it
//! reports on — or, for Table 4, the built scenario — and returns the text
//! `repro` writes to `results/<view>.txt`. Nothing here simulates, reads
//! the clock or touches the file system, so the same month always renders
//! the same bytes.

use crate::runner::{pct, timeseries_sidecar_json};
use netsession_analytics::guidgraph::{self, ChainPattern};
use netsession_analytics::regions::{self, CoverageClass};
use netsession_analytics::stats::{mean, Cdf};
use netsession_analytics::{
    astraffic, efficiency, mobility as mobility_stats, outcomes as outcome_stats, overview,
    settings, sizes, speeds,
};
use netsession_baseline::bittorrent::{Swarm, SwarmConfig};
use netsession_core::id::AsNumber;
use netsession_core::rng::DetRng;
use netsession_core::time::TRACE_MONTH;
use netsession_hybrid::alerts::{first_detection, replay_standard_alerts, FAULT_CLASS_RULES};
use netsession_hybrid::{FaultEvent, FaultKind, ScaledAlert, Scenario, SimOutput};
use netsession_logs::records::DownloadOutcome;
use netsession_world::customers::{customer_by_cp, customer_by_name, CUSTOMERS};
use netsession_world::geo::{continent_of, Continent, Region, WORLD_COUNTRIES};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write};

/// GUIDs in the paper's trace; the denominator of every scale factor.
const PAPER_GUIDS: f64 = 25_941_122.0;

/// Run a writer over a fresh `String`. Writing into a `String` cannot
/// fail, so the renderers use `?` freely and return plain text.
fn render(f: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut o = String::new();
    f(&mut o).expect("formatting into a String cannot fail");
    o
}

/// E18 — the §5.1 headline numbers.
///
/// Paper values: ~31 % of peers upload-enabled; p2p enabled on 1.7 % of
/// files accounting for 57.4 % of bytes; mean peer efficiency for
/// peer-assisted downloads 71.4 %; 70–80 % of peer-assisted traffic
/// offloaded to peers.
pub fn headline(out: &SimOutput) -> String {
    let h = overview::headline(&out.dataset);
    render(|o| {
        writeln!(o, "metric                          paper      measured")?;
        writeln!(
            o,
            "uploads enabled (peers)         ~31%       {}",
            pct(h.enabled_fraction)
        )?;
        writeln!(
            o,
            "p2p-enabled files               1.7%       {}",
            pct(h.p2p_file_fraction)
        )?;
        writeln!(
            o,
            "bytes on p2p-enabled files      57.4%      {}",
            pct(h.p2p_byte_share)
        )?;
        writeln!(
            o,
            "mean peer efficiency (p2p dls)  71.4%      {}",
            pct(h.mean_peer_efficiency)
        )?;
        writeln!(
            o,
            "offload (bytes-weighted)        70-80%     {}",
            pct(h.offload_fraction)
        )?;
        writeln!(o)?;
        writeln!(
            o,
            "downloads logged: {}  completed: {}  abandoned: {}  failed(sys/env): {}/{}",
            out.dataset.downloads.len(),
            out.stats.completed,
            out.stats.abandoned,
            out.stats.failed_system,
            out.stats.failed_env
        )?;
        writeln!(
            o,
            "p2p bytes: {:.2} TB  edge bytes: {:.2} TB  logins: {}  punch failures: {}",
            out.stats.p2p_bytes as f64 / 1e12,
            out.stats.edge_bytes as f64 / 1e12,
            out.stats.logins,
            out.stats.punch_failures
        )
    })
}

/// E1 — Table 1: overall statistics for the data set.
///
/// The paper's trace (October 2012): 4,150,989,257 log entries; 25,941,122
/// GUIDs; 4,038,894 distinct URLs; 133,690,372 distinct IPs; 12,508,764
/// downloads; 34,383 locations; 31,190 ASes; 239 country codes. The month
/// is scaled down; the scale factor is printed so shares can be compared.
pub fn table1(out: &SimOutput) -> String {
    let s = out.dataset.summary();
    let scale = PAPER_GUIDS / out.scenario.config.population.peers as f64;
    render(|o| {
        writeln!(
            o,
            "Table 1: overall statistics (scale factor ≈ {scale:.0}× below the paper)"
        )?;
        writeln!(o, "{:<34}{:>16}{:>16}", "quantity", "paper", "measured")?;
        let rows: [(&str, u64, u64); 8] = [
            ("Log entries", 4_150_989_257, s.log_entries),
            ("Number of GUIDs", 25_941_122, s.guids),
            ("Distinct URLs", 4_038_894, s.urls),
            ("Distinct IPs", 133_690_372, s.ips),
            ("Downloads initiated", 12_508_764, s.downloads),
            ("Distinct locations", 34_383, s.locations),
            ("Distinct autonomous systems", 31_190, s.ases),
            ("Distinct country codes", 239, s.countries),
        ];
        for (name, paper, measured) in rows {
            writeln!(o, "{name:<34}{paper:>16}{measured:>16}")?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "per-GUID downloads: paper {:.2}, measured {:.2}",
            12_508_764.0 / PAPER_GUIDS,
            s.downloads as f64 / s.guids.max(1) as f64
        )
    })
}

/// E2 — Table 2: global distribution of downloads for the ten largest
/// content providers.
pub fn table2(out: &SimOutput) -> String {
    let (rows, all) = regions::table2(&out.dataset);
    let share = |v: f64| {
        if v < 0.005 {
            "-".to_string()
        } else {
            format!("{:.0}%", v * 100.0)
        }
    };
    render(|o| {
        write!(o, "{:<14}", "customer")?;
        for r in Region::ALL {
            write!(o, "{:>11}", r.label())?;
        }
        writeln!(o)?;
        let mut row = |name: &str, mix: &[f64; 9]| {
            write!(o, "{name:<14}")?;
            for v in mix {
                write!(o, "{:>11}", share(*v))?;
            }
            writeln!(o)
        };
        for (cp, mix) in &rows {
            let name = customer_by_cp(*cp).map(|c| c.name).unwrap_or("?");
            row(&format!("Customer {name}"), mix)?;
        }
        row("All customers", &all)?;

        writeln!(o)?;
        writeln!(
            o,
            "paper row for comparison (All customers): 7% 4% 11% 3% 2% 20% 46% 4% 2%"
        )?;
        writeln!(
            o,
            "paper-specified per-customer rows are encoded in netsession_world::customers::CUSTOMERS:"
        )?;
        for c in CUSTOMERS {
            let row: Vec<String> = c.region_mix.iter().map(|v| share(*v)).collect();
            writeln!(o, "  {} (target): {}", c.name, row.join(" "))?;
        }
        Ok(())
    })
}

/// E3 — Table 3: observed changes to the upload-enable setting.
///
/// Paper: initially disabled — 99.96 % zero changes, 0.03 % one, 0.01 %
/// two-plus; initially enabled — 98.11 % / 1.80 % / 0.09 %.
pub fn table3(out: &SimOutput) -> String {
    let (disabled, enabled) = settings::table3(&out.dataset);
    render(|o| {
        writeln!(o, "Table 3: observed changes to the upload setting")?;
        writeln!(
            o,
            "{:<22}{:>12}{:>10}{:>10}{:>10}",
            "uploads initially...", "GUIDs", "0", "1", ">=2"
        )?;
        for (label, row, paper) in [
            ("Disabled", &disabled, "99.96% 0.03% 0.01%"),
            ("Enabled", &enabled, "98.11% 1.80% 0.09%"),
        ] {
            let (z, one, t) = row.fractions();
            writeln!(
                o,
                "{:<22}{:>12}{:>9.2}%{:>9.2}%{:>9.2}%   (paper: {})",
                label,
                row.total,
                z * 100.0,
                one * 100.0,
                t * 100.0,
                paper
            )?;
        }
        Ok(())
    })
}

/// E4 — Table 4: fraction of peers with content uploads enabled, per
/// customer. A property of the installed base, so it renders from the
/// built scenario before any simulation.
///
/// Paper row: A <1, B 20, C 2, D 94, E 2, F 45, G 47, H <1, I 91, J <1 (%).
pub fn table4(scenario: &Scenario) -> String {
    let mut enabled = vec![0u64; CUSTOMERS.len()];
    let mut total = vec![0u64; CUSTOMERS.len()];
    for p in &scenario.population.peers {
        total[p.customer] += 1;
        if p.uploads_enabled {
            enabled[p.customer] += 1;
        }
    }
    let cell = |o: &mut String, f: f64| {
        if f < 1.0 {
            write!(o, "{:>7}", "<1%")
        } else {
            write!(o, "{:>6.0}%", f)
        }
    };
    render(|o| {
        writeln!(o, "Table 4: fraction of peers with content uploads enabled")?;
        write!(o, "{:<10}", "customer")?;
        for c in CUSTOMERS {
            write!(o, "{:>7}", c.name)?;
        }
        writeln!(o)?;
        write!(o, "{:<10}", "measured")?;
        for i in 0..CUSTOMERS.len() {
            cell(o, enabled[i] as f64 / total[i].max(1) as f64 * 100.0)?;
        }
        writeln!(o)?;
        write!(o, "{:<10}", "paper")?;
        for c in CUSTOMERS {
            cell(o, c.upload_enabled_fraction * 100.0)?;
        }
        writeln!(o)?;
        let overall = enabled.iter().sum::<u64>() as f64 / total.iter().sum::<u64>().max(1) as f64;
        writeln!(o)?;
        writeln!(
            o,
            "overall enabled fraction: {:.1}% (paper: ~31%)",
            overall * 100.0
        )
    })
}

/// E5 — Fig 2: global distribution of peers ("bubble plot" data).
///
/// Per country, the number of peers whose first control-plane connection
/// came from there, plus continental shares to compare against §4.2
/// (North America 27 %, Europe 35 %).
pub fn fig2(out: &SimOutput) -> String {
    let bubbles = regions::fig2_first_connections(&out.dataset);
    render(|o| {
        writeln!(
            o,
            "Fig 2: first-connection counts per country (bubble sizes)"
        )?;
        writeln!(o, "{:<6}{:<24}{:>10}", "iso", "country", "peers")?;
        for (country_idx, count) in bubbles.iter().take(25) {
            let c = &WORLD_COUNTRIES[*country_idx as usize];
            writeln!(o, "{:<6}{:<24}{:>10}", c.iso, c.name, count)?;
        }
        if bubbles.len() > 25 {
            writeln!(o, "… and {} more countries", bubbles.len() - 25)?;
        }

        let total: u64 = bubbles.iter().map(|(_, n)| n).sum();
        let mut shares: HashMap<Continent, u64> = HashMap::new();
        for (country_idx, count) in &bubbles {
            let iso = WORLD_COUNTRIES[*country_idx as usize].iso;
            *shares.entry(continent_of(iso)).or_insert(0) += count;
        }
        writeln!(o)?;
        writeln!(
            o,
            "continental shares (paper: North America 27%, Europe 35%):"
        )?;
        let mut shares: Vec<(Continent, u64)> = shares.into_iter().collect();
        shares.sort_by_key(|(cont, _)| format!("{cont:?}"));
        for (cont, count) in &shares {
            writeln!(
                o,
                "  {:?}: {:.0}%",
                cont,
                *count as f64 / total.max(1) as f64 * 100.0
            )?;
        }
        writeln!(
            o,
            "countries with peers: {} (paper: 239 incl. territories)",
            bubbles.len()
        )
    })
}

/// E6 — Fig 3a: request distribution by object size.
///
/// Paper shape: peer-assisted requests are strongly biased toward large
/// objects — 82 % of them exceed 500 MB — while infrastructure-only
/// requests skew small.
pub fn fig3a(out: &SimOutput) -> String {
    let cdfs = sizes::fig3a(&out.dataset);
    render(|o| {
        writeln!(o, "Fig 3a: CDF of requests by object size (GB)")?;
        writeln!(
            o,
            "{:>12}{:>14}{:>10}{:>16}",
            "size (GB)", "infra-only", "all", "peer-assisted"
        )?;
        for x in [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            writeln!(
                o,
                "{:>12}{:>13.0}%{:>9.0}%{:>15.0}%",
                x,
                cdfs.infra_only.fraction_at(x) * 100.0,
                cdfs.all.fraction_at(x) * 100.0,
                cdfs.peer_assisted.fraction_at(x) * 100.0
            )?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "peer-assisted requests >500MB: {:.0}% (paper: 82%)",
            sizes::p2p_large_request_fraction(&out.dataset) * 100.0
        )?;
        writeln!(
            o,
            "medians (GB): infra-only {:.3}, all {:.3}, peer-assisted {:.3}",
            cdfs.infra_only.median(),
            cdfs.all.median(),
            cdfs.peer_assisted.median()
        )
    })
}

/// E7 — Fig 3b: content popularity ("the nearly ubiquitous power law"):
/// the downloads-vs-rank series and the fitted log-log slope.
pub fn fig3b(out: &SimOutput) -> String {
    let ranked = sizes::fig3b(&out.dataset);
    render(|o| {
        writeln!(
            o,
            "Fig 3b: content popularity (downloads per object by rank)"
        )?;
        writeln!(o, "{:>10}{:>14}", "rank", "downloads")?;
        let mut rank = 1usize;
        while rank <= ranked.len() {
            writeln!(o, "{:>10}{:>14}", rank, ranked[rank - 1])?;
            rank *= 4;
        }
        writeln!(o)?;
        let alpha = sizes::powerlaw_exponent(&ranked);
        writeln!(o, "objects downloaded: {}", ranked.len())?;
        writeln!(
            o,
            "fitted log-log slope: {alpha:.2} (a power law shows a clear negative slope)"
        )?;
        writeln!(
            o,
            "top-1% share of downloads: {:.0}%",
            ranked[..(ranked.len() / 100).max(1)].iter().sum::<u64>() as f64
                / ranked.iter().sum::<u64>().max(1) as f64
                * 100.0
        )
    })
}

/// E8 — Fig 3c: bytes served over time ("the usual diurnal patterns").
///
/// TB/hour aggregated by hour of day, in GMT and in requesters' local
/// time. The paper's signature: the local-time curve shows a strong
/// evening peak; the GMT curve is flattened by timezone spread.
pub fn fig3c(out: &SimOutput) -> String {
    let hours = TRACE_MONTH.as_hours_f64() as usize + 48;
    let (gmt, local) = sizes::fig3c(&out.dataset, hours, |c| {
        WORLD_COUNTRIES[c as usize].tz_offset
    });
    // Collapse to hour-of-day profiles.
    let mut gmt_prof = [0.0f64; 24];
    let mut local_prof = [0.0f64; 24];
    for (h, v) in gmt.iter().enumerate() {
        gmt_prof[h % 24] += v;
    }
    for (h, v) in local.iter().enumerate() {
        local_prof[h % 24] += v;
    }
    let spread = |v: &[f64; 24]| {
        let max = v.iter().cloned().fold(0.0, f64::max);
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        max / min.max(1e-9)
    };
    render(|o| {
        writeln!(
            o,
            "Fig 3c: bytes served by hour of day (TB, summed over the month)"
        )?;
        writeln!(o, "{:>6}{:>12}{:>12}", "hour", "GMT", "local")?;
        for h in 0..24 {
            writeln!(o, "{:>6}{:>12.3}{:>12.3}", h, gmt_prof[h], local_prof[h])?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "peak/trough ratio: GMT {:.1}x, local {:.1}x (paper: local curve visibly more diurnal)",
            spread(&gmt_prof),
            spread(&local_prof)
        )?;
        writeln!(
            o,
            "total served: {:.2} TB over {:.0} days",
            gmt.iter().sum::<f64>(),
            TRACE_MONTH.as_hours_f64() / 24.0
        )
    })
}

/// E9 — Fig 4: edge-only vs peer-assisted download speed in the two
/// largest ASes.
///
/// Paper shape: peer-assisted downloads are somewhat slower but still
/// multiple Mbps; the gap is biggest in high-bandwidth networks (upstream
/// asymmetry).
pub fn fig4(out: &SimOutput) -> String {
    render(|o| {
        for (label, s) in ["AS X", "AS Y"].iter().zip(speeds::fig4(&out.dataset)) {
            writeln!(
                o,
                "Fig 4 — {} ({}, {} downloads): CDF of mean download speed (Mbps)",
                label, s.asn, s.downloads
            )?;
            writeln!(o, "{:>12}{:>12}{:>12}", "speed", "edge-only", ">50% p2p")?;
            for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
                writeln!(
                    o,
                    "{:>12}{:>11.0}%{:>11.0}%",
                    x,
                    s.edge_only.fraction_at(x) * 100.0,
                    s.mostly_p2p.fraction_at(x) * 100.0
                )?;
            }
            if !s.edge_only.is_empty() && !s.mostly_p2p.is_empty() {
                writeln!(
                    o,
                    "medians: edge-only {:.1} Mbps, >50% p2p {:.1} Mbps (paper: p2p somewhat slower, both multi-Mbps)",
                    s.edge_only.median(),
                    s.mostly_p2p.median()
                )?;
            }
            writeln!(o)?;
        }
        Ok(())
    })
}

/// E10 — Fig 5: registered file copies vs. peer efficiency.
///
/// Paper shape: below ~50 registered copies efficiency is under 10 %, it
/// rises rapidly after that, and reaches ~80 % around 10,000 copies.
pub fn fig5(out: &SimOutput) -> String {
    let buckets = efficiency::fig5(&out.dataset);
    render(|o| {
        writeln!(
            o,
            "Fig 5: peer efficiency vs file copies registered during the month"
        )?;
        writeln!(
            o,
            "{:>14}{:>8}{:>10}{:>9}{:>9}",
            "copies (~)", "files", "mean %", "p20 %", "p80 %"
        )?;
        for b in &buckets {
            writeln!(
                o,
                "{:>14.0}{:>8}{:>10.1}{:>9.1}{:>9.1}",
                b.copies, b.files, b.mean, b.p20, b.p80
            )?;
        }
        writeln!(o)?;
        if let (Some(first), Some(last)) = (buckets.first(), buckets.last()) {
            writeln!(
                o,
                "trend: {:.0}% at ~{:.0} copies → {:.0}% at ~{:.0} copies (paper: <10% below 50 copies, ~80% at 10k)",
                first.mean, first.copies, last.mean, last.copies
            )?;
        }
        Ok(())
    })
}

/// E11 — Fig 6: impact of the number of peers initially returned by the
/// control plane on peer efficiency.
///
/// Paper shape: ~80 % efficiency is generally reached with about 25–30
/// peers, consistent with BitTorrent needing a few tens of peers.
pub fn fig6(out: &SimOutput) -> String {
    let buckets = efficiency::fig6(&out.dataset);
    // Group into fives for readability.
    let mut grouped: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for b in &buckets {
        grouped
            .entry((b.peers / 5) * 5)
            .or_default()
            .extend(std::iter::repeat_n(b.mean, b.downloads));
    }
    render(|o| {
        writeln!(o, "Fig 6: peer efficiency vs peers initially returned")?;
        writeln!(o, "{:>8}{:>12}{:>10}", "peers", "downloads", "mean %")?;
        for (lo, vals) in &grouped {
            writeln!(
                o,
                "{:>5}-{:<3}{:>11}{:>10.1}",
                lo,
                lo + 4,
                vals.len(),
                mean(vals.iter().copied())
            )?;
        }
        Ok(())
    })
}

/// Control-plane `max_peers` values of the A4 sweep.
pub const PEERS_RETURNED_SWEEP: [usize; 4] = [5, 10, 20, 40];

/// A4 — the Fig 6 sweep: one month per forced number of peers returned
/// ([`PEERS_RETURNED_SWEEP`]), mean efficiency of completed peer-assisted
/// downloads.
pub fn fig6_sweep(months: &[&SimOutput]) -> String {
    render(|o| {
        writeln!(o, "A4 sweep: forcing max peers returned")?;
        writeln!(o, "{:>12}{:>12}", "max_peers", "mean eff %")?;
        for out in months {
            let effs = out
                .dataset
                .downloads
                .iter()
                .filter(|d| d.p2p_enabled && d.outcome == DownloadOutcome::Completed)
                .map(|d| d.peer_efficiency() * 100.0);
            writeln!(
                o,
                "{:>12}{:>12.1}",
                out.scenario.config.peers_returned,
                mean(effs)
            )?;
        }
        Ok(())
    })
}

/// E12 — Fig 7: downloads of larger files are terminated more often.
///
/// Paper shape: pause rates grow from a few percent for <10 MB files to
/// roughly 15–25 % for >1 GB files; peer-assisted downloads pause more
/// because they carry the bigger files, not because p2p is less reliable.
pub fn fig7(out: &SimOutput) -> String {
    let buckets = outcome_stats::fig7(&out.dataset);
    render(|o| {
        writeln!(o, "Fig 7: pause/termination rate by file size (%)")?;
        writeln!(
            o,
            "{:<12}{:>10}{:>14}{:>16}{:>8}",
            "size", "all", "infra-only", "peer-assisted", "n"
        )?;
        for b in &buckets {
            writeln!(
                o,
                "{:<12}{:>10.1}{:>14.1}{:>16.1}{:>8}",
                b.label, b.all, b.infra_only, b.peer_assisted, b.total
            )?;
        }
        writeln!(o)?;
        let first = &buckets[0];
        let last = &buckets[buckets.len() - 1];
        writeln!(
            o,
            "trend: {:.1}% (<10MB) → {:.1}% (>1GB); paper shows the same monotone growth",
            first.all, last.all
        )
    })
}

/// E13 — Fig 8: peer contributions in different regions (one p2p-enabled
/// provider).
///
/// Paper shape: a mixed picture — peers contribute more in some regions
/// (Africa, South America) but contributions "do not vary much overall"
/// because the edge infrastructure already covers the globe.
pub fn fig8(out: &SimOutput) -> String {
    // Customer D: a typical p2p-enabled provider (94 % uploads enabled).
    let cp = customer_by_name("D").expect("customer D").cp;
    let classes = regions::fig8_country_classes(&out.dataset, cp);
    render(|o| {
        writeln!(
            o,
            "Fig 8: per-country byte split for customer D (p2p-enabled provider)"
        )?;
        writeln!(
            o,
            "{:<6}{:<22}{:>12}{:>12}{:<20}",
            "iso", "country", "infra GB", "peer GB", "  class"
        )?;
        let mut by_class: BTreeMap<CoverageClass, usize> = BTreeMap::new();
        let mut by_continent: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (country, infra, peers, class) in &classes {
            let c = &WORLD_COUNTRIES[*country as usize];
            *by_class.entry(*class).or_insert(0) += 1;
            let e = by_continent
                .entry(format!("{:?}", continent_of(c.iso)))
                .or_insert((0, 0));
            e.0 += infra;
            e.1 += peers;
            writeln!(
                o,
                "{:<6}{:<22}{:>12.2}{:>12.2}  {:?}",
                c.iso,
                c.name,
                *infra as f64 / 1e9,
                *peers as f64 / 1e9,
                class
            )?;
        }
        writeln!(o)?;
        writeln!(o, "class counts: {by_class:?}")?;
        writeln!(o, "per-continent infra/peer byte split:")?;
        for (cont, (infra, peers)) in &by_continent {
            let share = *peers as f64 / (*infra + *peers).max(1) as f64 * 100.0;
            writeln!(o, "  {cont}: peers serve {share:.0}% of bytes")?;
        }
        Ok(())
    })
}

/// Whether two ASes of the month's AS universe share a direct link.
fn direct_link(out: &SimOutput) -> impl Fn(AsNumber, AsNumber) -> bool + '_ {
    let as_model = &out.scenario.population.as_model;
    move |a, b| match (as_model.index_of(a), as_model.index_of(b)) {
        (Some(x), Some(y)) => as_model.direct_link(x, y),
        _ => false,
    }
}

/// E14/E21 — Fig 9: inter-AS traffic distribution.
///
/// Paper shape: (a) roughly half the ASes send no inter-AS p2p bytes; a
/// heavy tail sends terabytes. (b) 98 % of ASes contribute only ~10 % of
/// the bytes; the remaining 2 % ("heavy uploaders") contribute ~90 %.
/// (c) heavy uploaders simply contain far more peers (IPs). Also the §6.1
/// headline shares: 18 % intra-AS traffic, ~35 % of heavy-pair bytes on
/// direct links.
pub fn fig9(out: &SimOutput) -> String {
    let t = astraffic::build(&out.dataset);
    let as_model = &out.scenario.population.as_model;
    render(|o| {
        writeln!(
            o,
            "intra-AS share of p2p bytes: {:.0}% (paper: 18%)",
            t.intra_as_share() * 100.0
        )?;
        writeln!(
            o,
            "total p2p content bytes: {:.2} TB across {} uploading ASes",
            t.total_bytes as f64 / 1e12,
            t.uploaded.len()
        )?;
        writeln!(o)?;

        // Fig 9a.
        let cdf = t.fig9a(as_model.specs().iter().map(|s| s.asn));
        writeln!(o, "Fig 9a: CDF of inter-AS p2p bytes uploaded per AS")?;
        writeln!(o, "{:>14}{:>14}", "bytes", "frac of ASes")?;
        for x in [0.0, 1e6, 1e8, 1e9, 1e10, 1e11, 1e12] {
            writeln!(o, "{:>14.0}{:>13.0}%", x, cdf.fraction_at(x) * 100.0)?;
        }
        writeln!(o)?;

        // Fig 9b.
        let curve = t.fig9b();
        writeln!(
            o,
            "Fig 9b: cumulative contribution (paper: 98% of ASes → 10% of bytes)"
        )?;
        if curve.is_empty() {
            return Ok(());
        }
        let n = curve.len();
        let idx98 = ((n as f64 * 0.98) as usize).min(n - 1);
        writeln!(
            o,
            "  98% of uploading ASes contribute {:.0}% of the bytes",
            curve[idx98].1
        )?;
        let heavy = t.heavy_uploaders(0.02);
        writeln!(
            o,
            "  top 2% ({} ASes) contribute {:.0}% (paper: 90%)",
            heavy.len(),
            t.heavy_share(&heavy) * 100.0
        )?;

        // Fig 9c.
        let (light, heavy_ips) = t.fig9c(&heavy);
        writeln!(o)?;
        writeln!(o, "Fig 9c: distinct IPs per AS (light vs heavy uploaders)")?;
        if !light.is_empty() && !heavy_ips.is_empty() {
            writeln!(
                o,
                "  median IPs: light {:.0}, heavy {:.0} (paper: heavy ASes hold far more peers)",
                light.median(),
                heavy_ips.median()
            )?;
            writeln!(
                o,
                "  p90 IPs:    light {:.0}, heavy {:.0}",
                light.percentile(90.0),
                heavy_ips.percentile(90.0)
            )?;
        }

        // §6.1 direct-link estimate.
        let share = t.direct_link_share(&heavy, direct_link(out));
        writeln!(o)?;
        writeln!(
            o,
            "heavy-pair bytes on direct AS links: {:.0}% (paper estimate: ~35%)",
            share * 100.0
        )
    })
}

/// Share of `ratios` within 2x of balance.
fn near_balance(ratios: &[f64]) -> f64 {
    ratios.iter().filter(|r| **r > 0.5 && **r < 2.0).count() as f64 / ratios.len() as f64
}

/// E15 — Fig 10: p2p bytes uploaded vs downloaded per AS.
///
/// Paper shape: light ASes scatter with large relative imbalances; the
/// heavy uploaders cluster near the diagonal — "they usually receive as
/// much as they send".
pub fn fig10(out: &SimOutput) -> String {
    let t = astraffic::build(&out.dataset);
    let heavy = t.heavy_uploaders(0.02);
    let scatter = t.fig10(&heavy);
    render(|o| {
        writeln!(
            o,
            "Fig 10: per-AS uploaded vs downloaded inter-AS bytes (sample)"
        )?;
        writeln!(o, "{:>16}{:>16}{:>8}", "uploaded", "downloaded", "heavy")?;
        for (up, down, is_heavy) in scatter.iter().rev().take(20) {
            writeln!(o, "{:>16}{:>16}{:>8}", up, down, is_heavy)?;
        }
        writeln!(o, "… {} ASes total in the scatter", scatter.len())?;
        writeln!(o)?;

        let ratios = t.heavy_balance_ratios(&heavy);
        if !ratios.is_empty() {
            let cdf = Cdf::from_values(ratios.clone());
            writeln!(
                o,
                "heavy-uploader balance ratio up/down: median {:.2}, p10 {:.2}, p90 {:.2}",
                cdf.median(),
                cdf.percentile(10.0),
                cdf.percentile(90.0)
            )?;
            writeln!(
                o,
                "heavy uploaders within 2x of balance: {:.0}% (paper: heavy traffic is well balanced)",
                near_balance(&ratios) * 100.0
            )?;
        }
        // Light-AS imbalance for contrast.
        let light_ratios: Vec<f64> = scatter
            .iter()
            .filter(|(up, down, h)| !h && *up > 0 && *down > 0)
            .map(|(up, down, _)| *up as f64 / *down as f64)
            .collect();
        if !light_ratios.is_empty() {
            writeln!(
                o,
                "light uploaders within 2x of balance: {:.0}%",
                near_balance(&light_ratios) * 100.0
            )?;
        }
        Ok(())
    })
}

/// E16 — Fig 11: traffic balance on AS-to-AS links.
///
/// Paper shape: among directly connected heavy uploaders, the pairwise
/// A→B vs B→A byte counts hug the diagonal — no pairwise imbalance either.
pub fn fig11(out: &SimOutput) -> String {
    let t = astraffic::build(&out.dataset);
    let heavy = t.heavy_uploaders(0.02);
    let pairs = t.fig11(&heavy, direct_link(out));
    render(|o| {
        writeln!(
            o,
            "Fig 11: A→B vs B→A bytes for {} directly connected heavy pairs",
            pairs.len()
        )?;
        writeln!(o, "{:>16}{:>16}", "A→B bytes", "B→A bytes")?;
        for (ab, ba) in pairs.iter().rev().take(20) {
            writeln!(o, "{:>16}{:>16}", ab, ba)?;
        }
        let ratios: Vec<f64> = pairs
            .iter()
            .filter(|(ab, ba)| *ab > 0 && *ba > 0)
            .map(|(ab, ba)| *ab as f64 / *ba as f64)
            .collect();
        if !ratios.is_empty() {
            let cdf = Cdf::from_values(ratios.clone());
            writeln!(o)?;
            writeln!(
                o,
                "pairwise balance: median ratio {:.2}; {:.0}% of pairs within 2x (paper: roughly even)",
                cdf.median(),
                near_balance(&ratios) * 100.0
            )?;
        }
        Ok(())
    })
}

/// E17 — Fig 12: secondary-GUID chain patterns.
///
/// Paper: 17.7 M graphs with ≥3 vertices; 99.4 % linear chains, 0.6 %
/// trees. Of the nonlinear ones: 46.2 % one long branch plus a one-vertex
/// stub (failed update), 6.2 % two long branches (restored backup), 23.5 %
/// several short/medium branches (re-imaging/cloning), rest irregular.
pub fn fig12(out: &SimOutput) -> String {
    let census = guidgraph::fig12(&out.dataset);
    let total: u64 = census.values().sum();
    let get = |p: ChainPattern| census.get(&p).copied().unwrap_or(0);
    let linear = get(ChainPattern::Linear);
    let nonlinear = total - linear;
    render(|o| {
        writeln!(
            o,
            "Fig 12: secondary-GUID graph census ({total} graphs with ≥3 vertices)"
        )?;
        writeln!(
            o,
            "linear chains: {} ({:.2}%)   [paper: 99.4%]",
            linear,
            linear as f64 / total.max(1) as f64 * 100.0
        )?;
        writeln!(
            o,
            "nonlinear (trees): {} ({:.2}%) [paper: 0.6%]",
            nonlinear,
            guidgraph::nonlinear_fraction(&census) * 100.0
        )?;
        writeln!(o)?;
        if nonlinear > 0 {
            writeln!(o, "pattern mix among nonlinear graphs:")?;
            let share = |p| get(p) as f64 / nonlinear as f64 * 100.0;
            for (label, pattern, paper) in [
                (
                    "long + one-vertex stub ",
                    ChainPattern::LongPlusStub,
                    "46.2%",
                ),
                (
                    "two long branches      ",
                    ChainPattern::TwoLongBranches,
                    " 6.2%",
                ),
                (
                    "several branches       ",
                    ChainPattern::SeveralBranches,
                    "23.5%",
                ),
                ("irregular              ", ChainPattern::Irregular, "24.1%"),
            ] {
                writeln!(o, "  {label}: {:>5.1}%  [paper: {paper}]", share(pattern))?;
            }
        }
        Ok(())
    })
}

/// E19 — §5.2: are peer-assisted downloads less reliable?
///
/// Paper: 94 % of infrastructure-only downloads complete vs 92 % of
/// peer-assisted; system-related failures 0.1 % vs 0.2 %; pauses 3 % vs
/// 8 % — the completion gap is explained by pauses, which grow with file
/// size, not by system failures.
pub fn outcomes(out: &SimOutput) -> String {
    let (infra, p2p) = outcome_stats::outcome_split(&out.dataset);
    render(|o| {
        writeln!(o, "§5.2 outcome split")?;
        writeln!(
            o,
            "{:<24}{:>14}{:>16}",
            "metric", "infra-only", "peer-assisted"
        )?;
        writeln!(o, "{:<24}{:>14}{:>16}", "downloads", infra.total, p2p.total)?;
        for (name, a, b, paper) in [
            ("completed", infra.completed, p2p.completed, "94% / 92%"),
            (
                "failed (system)",
                infra.failed_system,
                p2p.failed_system,
                "0.1% / 0.2%",
            ),
            (
                "failed (other)",
                infra.failed_other,
                p2p.failed_other,
                "rest",
            ),
            (
                "paused/terminated",
                infra.abandoned,
                p2p.abandoned,
                "3% / 8%",
            ),
        ] {
            writeln!(
                o,
                "{:<24}{:>13.1}%{:>15.1}%   (paper: {})",
                name,
                a * 100.0,
                b * 100.0,
                paper
            )?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "qualitative check: p2p pauses more ({}), system failures stay tiny both ways ({})",
            p2p.abandoned > infra.abandoned,
            infra.failed_system < 0.01 && p2p.failed_system < 0.01
        )
    })
}

/// E20 — §6.2: mobility-related churn.
///
/// Paper: 80.6 % of GUIDs connected from one AS, 13.4 % from two, 6 % from
/// more; 77 % stayed within 10 km; the control plane receives 20,922 new
/// connections per minute on average.
pub fn mobility(out: &SimOutput) -> String {
    let s = mobility_stats::summarize(&out.dataset);
    let scale = PAPER_GUIDS / out.scenario.config.population.peers as f64;
    render(|o| {
        writeln!(o, "§6.2 mobility summary ({} GUIDs observed)", s.guids)?;
        writeln!(o, "{:<28}{:>10}{:>12}", "metric", "paper", "measured")?;
        for (name, paper, measured) in [
            ("single AS", "80.6%", s.single_as),
            ("two ASes", "13.4%", s.two_as),
            ("more than two", "6.0%", s.more_as),
            ("within 10 km", "77%", s.within_10km),
        ] {
            writeln!(o, "{:<28}{:>10}{:>11.1}%", name, paper, measured * 100.0)?;
        }
        writeln!(
            o,
            "{:<28}{:>10}{:>12.1}   (×{:.0} scale → {:.0} at paper scale)",
            "new connections / minute",
            "20,922",
            s.connections_per_minute,
            scale,
            s.connections_per_minute * scale
        )
    })
}

/// A1 — locality-aware selection vs random selection.
///
/// The paper argues (§3.7, §6.1, citing Choffnes & Bustamante) that a
/// simple locality-aware selection strategy avoids burdening ISPs. One
/// month with the locality ladder and one without; intra-AS share and
/// cross-country traffic of each.
pub fn ablate_locality(months: &[&SimOutput]) -> String {
    render(|o| {
        writeln!(o, "A1: impact of locality-aware peer selection")?;
        writeln!(
            o,
            "{:<22}{:>14}{:>18}{:>14}",
            "policy", "intra-AS %", "cross-country %", "p2p TB"
        )?;
        for out in months {
            let label = if out.scenario.config.locality_aware {
                "locality ladder ON"
            } else {
                "random selection"
            };
            let intra = astraffic::build(&out.dataset).intra_as_share() * 100.0;
            // Cross-country share of p2p bytes.
            let mut cross_country = 0u64;
            let mut total = 0u64;
            for rec in &out.dataset.transfers {
                total += rec.bytes.bytes();
                if rec.from_country != rec.to_country {
                    cross_country += rec.bytes.bytes();
                }
            }
            let cross = cross_country as f64 / total.max(1) as f64 * 100.0;
            let tb = out.stats.p2p_bytes as f64 / 1e12;
            writeln!(o, "{label:<22}{intra:>14.1}{cross:>18.1}{tb:>14.2}")?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "expectation: locality ON keeps more traffic intra-AS and in-country \
             (ISP-friendly), at equal p2p volume"
        )
    })
}

/// A2 — the edge backstop vs pure p2p.
///
/// The defining hybrid property (§2.3, §3.3): "if a peer is 'unlucky' and
/// picks peers that are slow or unreliable, the infrastructure can cover
/// the difference." Turning the backstop off should crater completion and
/// speed for unlucky downloads; the BitTorrent baseline shows the same
/// failure mode independently.
pub fn ablate_backstop(months: &[&SimOutput]) -> String {
    render(|o| {
        writeln!(o, "A2: the infrastructure backstop")?;
        writeln!(
            o,
            "{:<22}{:>12}{:>14}{:>18}",
            "system", "completed", "abandoned", "median speed Mbps"
        )?;
        for out in months {
            let label = if out.scenario.config.edge_backstop {
                "hybrid (backstop)"
            } else {
                "pure p2p (no edge)"
            };
            let (infra, p2p) = outcome_stats::outcome_split(&out.dataset);
            let total = (infra.total + p2p.total).max(1) as f64;
            let completed =
                (infra.completed * infra.total as f64 + p2p.completed * p2p.total as f64) / total;
            let abandoned =
                (infra.abandoned * infra.total as f64 + p2p.abandoned * p2p.total as f64) / total;
            let speeds: Vec<f64> = out
                .dataset
                .downloads
                .iter()
                .filter(|d| d.outcome == DownloadOutcome::Completed)
                .map(|d| d.mean_speed().as_mbps())
                .filter(|s| *s > 0.0)
                .collect();
            let median = if speeds.is_empty() {
                0.0
            } else {
                Cdf::from_values(speeds).median()
            };
            writeln!(
                o,
                "{:<22}{:>11.1}%{:>13.1}%{:>18.2}",
                label,
                completed * 100.0,
                abandoned * 100.0,
                median
            )?;
        }

        // The independent BitTorrent baseline: seed death strands the swarm.
        let seed = months[0].scenario.config.seed;
        let mut rng = DetRng::seeded(seed);
        let healthy = Swarm::new(SwarmConfig::default(), &mut rng).run(&mut rng);
        let mut rng = DetRng::seeded(seed);
        let orphaned = Swarm::new(
            SwarmConfig {
                seed_leaves_at: Some(2),
                ..SwarmConfig::default()
            },
            &mut rng,
        )
        .run(&mut rng);
        writeln!(o)?;
        writeln!(
            o,
            "BitTorrent baseline: completion {:.0}% with stable seed, {:.0}% when the seed dies early",
            healthy.completion_rate() * 100.0,
            orphaned.completion_rate() * 100.0
        )
    })
}

/// A3 — the per-object upload cap.
///
/// §6.1: "NetSession avoids such biases in part by limiting the number of
/// times a peer will upload a file it has locally cached." Removing the
/// cap should skew upload volume toward a smaller set of (high-upstream)
/// peers and ASes.
pub fn ablate_uploadcap(months: &[&SimOutput]) -> String {
    render(|o| {
        writeln!(o, "A3: the per-object upload cap")?;
        writeln!(
            o,
            "{:<18}{:>14}{:>22}{:>20}",
            "policy", "p2p TB", "top-1% uploader share", "max uploads/peer"
        )?;
        for out in months {
            let label = match out.scenario.config.per_object_upload_cap {
                Some(cap) => format!("cap = {cap}"),
                None => "uncapped".to_string(),
            };
            // Upload bytes per uploader GUID.
            let mut per_uploader: HashMap<u128, u64> = HashMap::new();
            for t in &out.dataset.transfers {
                *per_uploader.entry(t.from_guid.0).or_insert(0) += t.bytes.bytes();
            }
            let mut vols: Vec<u64> = per_uploader.values().copied().collect();
            vols.sort_unstable_by(|a, b| b.cmp(a));
            let total: u64 = vols.iter().sum();
            let top1: u64 = vols[..(vols.len() / 100).max(1)].iter().sum();
            // Upload *counts* per (uploader, object).
            let mut counts: HashMap<(u128, u64), u32> = HashMap::new();
            for t in &out.dataset.transfers {
                *counts.entry((t.from_guid.0, t.object.0)).or_insert(0) += 1;
            }
            let max_count = counts.values().max().copied().unwrap_or(0);
            writeln!(
                o,
                "{:<18}{:>14.2}{:>21.1}%{:>20}",
                label,
                out.stats.p2p_bytes as f64 / 1e12,
                top1 as f64 / total.max(1) as f64 * 100.0,
                max_count
            )?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "expectation: uncapped concentrates upload volume on fewer peers"
        )
    })
}

/// Uploads-enabled fractions of the A5 sweep.
pub const ENABLE_FRACTIONS: [f64; 5] = [0.0, 0.1, 0.31, 0.6, 1.0];

/// A5 — sweep of the uploads-enabled fraction ([`ENABLE_FRACTIONS`]).
///
/// §5.1 observes ~31 % enabled and argues the infrastructure "can easily
/// absorb the cost of a few users who decide not to upload" (§3.4). The
/// sweep quantifies how peer efficiency and edge offload scale with the
/// willing-uploader fraction.
pub fn ablate_enablefrac(months: &[&SimOutput]) -> String {
    render(|o| {
        writeln!(o, "A5: uploads-enabled fraction sweep")?;
        writeln!(
            o,
            "{:>10}{:>16}{:>14}{:>14}",
            "enabled", "mean eff %", "p2p TB", "edge TB"
        )?;
        for out in months {
            let frac = out
                .scenario
                .config
                .enable_fraction_override
                .expect("A5 months force the enabled fraction");
            let h = overview::headline(&out.dataset);
            writeln!(
                o,
                "{:>9.0}%{:>16.1}{:>14.2}{:>14.2}",
                frac * 100.0,
                h.mean_peer_efficiency * 100.0,
                out.stats.p2p_bytes as f64 / 1e12,
                out.stats.edge_bytes as f64 / 1e12
            )?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "expectation: efficiency grows with the enabled fraction; ~31% already \
             yields the bulk of the achievable offload (diminishing returns)"
        )
    })
}

/// Availability models of the A6 ablation: label and session-mode factor.
pub const SESSION_MODES: [(&str, f64); 3] = [
    ("persistent background", 1.0),
    ("half-day sessions", 0.5),
    ("short sessions (15%)", 0.15),
];

/// A6 — persistent background client vs launch-on-demand sessions, one
/// month per [`SESSION_MODES`] entry, in that order.
///
/// §3.4: "the short session times that have been observed in p2p systems
/// suggest that users launch the client only when they intend to download
/// something, so the time window in which objects can be uploaded to other
/// peers tends to be very short. As a persistent background application,
/// NetSession does not have this problem." The ablation shrinks each
/// peer's daily online window to model launch-on-demand clients.
pub fn ablate_sessions(months: &[&SimOutput]) -> String {
    render(|o| {
        writeln!(o, "A6: background client vs launch-on-demand sessions")?;
        writeln!(
            o,
            "{:<28}{:>16}{:>14}{:>12}",
            "availability model", "mean eff %", "p2p TB", "logins"
        )?;
        for ((label, _), out) in SESSION_MODES.iter().zip(months) {
            let h = overview::headline(&out.dataset);
            writeln!(
                o,
                "{:<28}{:>16.1}{:>14.2}{:>12}",
                label,
                h.mean_peer_efficiency * 100.0,
                out.stats.p2p_bytes as f64 / 1e12,
                out.stats.logins
            )?;
        }
        writeln!(o)?;
        writeln!(
            o,
            "expectation: shorter upload windows shrink swarm capacity and efficiency"
        )
    })
}

/// The §3.8 chaos campaign: one fault class per week, every region.
pub fn chaos_campaign() -> Vec<FaultEvent> {
    let mut events = Vec::new();
    for region in 0..9 {
        events.push(FaultEvent {
            at_hours: 186, // day 8
            kind: FaultKind::CnCrash { region },
        });
        events.push(FaultEvent {
            at_hours: 330, // day 14
            kind: FaultKind::DnWipe { region },
        });
        events.push(FaultEvent {
            at_hours: 480, // day 20
            kind: FaultKind::EdgeOutage {
                region,
                secs: 7_200,
            },
        });
    }
    events.push(FaultEvent {
        at_hours: 600, // day 25
        kind: FaultKind::ChurnBurst { fraction: 0.3 },
    });
    events
}

/// One row of the time-to-detection table: fault class, detection rule,
/// injection instant and the first raise at or after it (virtual µs).
type Detection = (&'static str, &'static str, u64, Option<u64>);

/// Time-to-detection of each fault class the month's schedule injects,
/// in [`FAULT_CLASS_RULES`] order: the class's first injection joined to
/// its detection by [`first_detection`] (fleet-wide preferred).
fn detection_table(out: &SimOutput) -> Vec<Detection> {
    let detections = replay_standard_alerts(&out.timeseries);
    let faults = &out.scenario.config.faults.events;
    FAULT_CLASS_RULES
        .iter()
        .filter_map(|(class, rule, _)| {
            let at_hours = faults
                .iter()
                .filter(|f| f.kind.class() == *class)
                .map(|f| f.at_hours)
                .min()?;
            let injected_us = at_hours * 3_600_000_000;
            let detected =
                first_detection(&detections, class, None, injected_us).map(|d| d.event.at_us);
            Some((*class, *rule, injected_us, detected))
        })
        .collect()
}

/// The month's injected faults in schedule-time order, one record per
/// region hit, shaped like the sharded runner's fault log so either
/// engine's sidecar reads the same: a fleet-wide churn burst logs every
/// region with the peers it dropped there.
fn injected_faults(out: &SimOutput) -> Vec<ScaledAlert> {
    let ts = &out.timeseries;
    let dropped = ts
        .metric("hybrid.fault.churn_offline")
        .expect("churn_offline in the catalog");
    let mut faults = out.scenario.config.faults.events.clone();
    faults.sort_by_key(|f| f.at_hours);
    let mut log = Vec::new();
    for f in faults {
        let window = (f.at_hours * 3_600_000_000 / ts.interval_us) as u32;
        let alert = |region: usize, detail: u64| ScaledAlert {
            class: f.kind.class(),
            at_hours: f.at_hours,
            window,
            region: region as u8,
            detail,
        };
        match f.kind {
            FaultKind::EdgeOutage { region, secs } => log.push(alert(region as usize, secs)),
            FaultKind::ChurnBurst { .. } => {
                for (g, row) in dropped.values.iter().enumerate() {
                    log.push(alert(g, row[window as usize] as u64));
                }
            }
            kind => log.push(alert(kind.region().expect("regional fault") as usize, 0)),
        }
    }
    log
}

fn completion_rate(out: &SimOutput) -> f64 {
    out.stats.completed as f64 / out.dataset.downloads.len().max(1) as f64
}

fn peer_efficiency(out: &SimOutput) -> f64 {
    let total = out.stats.p2p_bytes + out.stats.edge_bytes;
    if total == 0 {
        0.0
    } else {
        out.stats.p2p_bytes as f64 / total as f64
    }
}

/// Per-day peer byte share over completed downloads, keyed by the day the
/// download ended.
fn daily_efficiency(out: &SimOutput) -> BTreeMap<u64, f64> {
    let mut per_day: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for rec in &out.dataset.downloads {
        if rec.outcome != DownloadOutcome::Completed {
            continue;
        }
        let day = rec.ended.as_micros() / (24 * 3_600 * 1_000_000);
        let e = per_day.entry(day).or_insert((0, 0));
        e.0 += rec.bytes_peers.bytes();
        e.1 += rec.bytes_infra.bytes();
    }
    per_day
        .into_iter()
        .map(|(day, (peers, infra))| {
            let total = peers + infra;
            let eff = if total == 0 {
                0.0
            } else {
                peers as f64 / total as f64
            };
            (day, eff)
        })
        .collect()
}

/// The §3.8 robustness campaign: the standard month (`baseline`) against
/// the same month under [`chaos_campaign`] — CN crashes (paced
/// readmission), DN soft-state wipes (RE-ADD fate-sharing), a fleet-wide
/// edge outage (backstop flows cut, then re-attached), and a mass churn
/// burst. Reports the service-level damage (completion rate,
/// peer-efficiency dip), the recovery machinery's work, per-fault-class
/// recovery latency from the always-sampled fault trace spans, and the
/// alert engine's time-to-detection.
///
/// Panics if the baseline fired any alert or a fault class went
/// undetected: either means the alerting claim no longer holds.
pub fn chaos(baseline: &SimOutput, out: &SimOutput) -> String {
    assert!(
        baseline.alerts.is_empty(),
        "zero-fault baseline fired alerts (false positives): {:?}",
        baseline.alerts
    );
    let ttd = detection_table(out);
    assert!(
        ttd.iter().all(|(.., detected)| detected.is_some()),
        "every injected fault class must be detected: {ttd:?}"
    );
    render(|o| {
        writeln!(
            o,
            "injected campaign (one fault class per week, all 9 regions):"
        )?;
        writeln!(
            o,
            "  day  8  cn_crash     control connections drop; paced readmission + re-registration"
        )?;
        writeln!(
            o,
            "  day 14  dn_wipe      directory soft state lost; paced RE-ADD repopulates it"
        )?;
        writeln!(
            o,
            "  day 20  edge_outage  edge dark for 2h; backstop flows cut, re-attached on recovery"
        )?;
        writeln!(
            o,
            "  day 25  churn_burst  30% of idle online peers drop offline at once"
        )?;
        writeln!(o)?;

        writeln!(o, "service level                   baseline     chaos")?;
        writeln!(
            o,
            "downloads completed             {:<12} {}",
            baseline.stats.completed, out.stats.completed
        )?;
        writeln!(
            o,
            "completion rate                 {:<12} {}",
            pct(completion_rate(baseline)),
            pct(completion_rate(out))
        )?;
        writeln!(
            o,
            "peer efficiency (byte share)    {:<12} {}",
            pct(peer_efficiency(baseline)),
            pct(peer_efficiency(out))
        )?;
        writeln!(
            o,
            "p2p bytes (TB)                  {:<12.2} {:.2}",
            baseline.stats.p2p_bytes as f64 / 1e12,
            out.stats.p2p_bytes as f64 / 1e12
        )?;
        writeln!(
            o,
            "edge bytes (TB)                 {:<12.2} {:.2}",
            baseline.stats.edge_bytes as f64 / 1e12,
            out.stats.edge_bytes as f64 / 1e12
        )?;
        writeln!(o)?;

        // The worst per-day peer-efficiency dip vs the baseline.
        let base_daily = daily_efficiency(baseline);
        let mut worst: Option<(u64, f64, f64)> = None;
        for (day, chaos_eff) in &daily_efficiency(out) {
            let Some(base_eff) = base_daily.get(day) else {
                continue;
            };
            let dip = base_eff - chaos_eff;
            if worst.is_none_or(|(_, b, c)| dip > b - c) {
                worst = Some((*day, *base_eff, *chaos_eff));
            }
        }
        match worst {
            Some((day, base_eff, chaos_eff)) => writeln!(
                o,
                "worst peer-efficiency dip: day {:>2}  {} -> {}  ({:+.1} pts)",
                day,
                pct(base_eff),
                pct(chaos_eff),
                (chaos_eff - base_eff) * 100.0
            )?,
            None => writeln!(o, "worst peer-efficiency dip: n/a")?,
        }
        writeln!(o)?;

        let counter = |name: &str| out.metrics.counter(name).get();
        writeln!(o, "recovery machinery (chaos run):")?;
        writeln!(
            o,
            "  cn crashes: {} dropped {} connections; {} paced readmissions re-registered {} cached versions",
            counter("hybrid.fault.cn_crashes"),
            counter("hybrid.fault.peers_disconnected"),
            counter("hybrid.fault.readmissions"),
            counter("hybrid.fault.reregistered_versions"),
        )?;
        writeln!(
            o,
            "  dn wipes:   {} triggered {} RE-ADDs covering {} versions",
            counter("hybrid.fault.dn_wipes"),
            counter("hybrid.fault.readds"),
            counter("hybrid.fault.readd_versions"),
        )?;
        writeln!(
            o,
            "  edge:       {} outages cut {} backstop flows, {} re-attached on recovery",
            counter("hybrid.fault.edge_outages"),
            counter("hybrid.fault.edge_flows_cut"),
            counter("hybrid.fault.edge_flows_restored"),
        )?;
        writeln!(
            o,
            "  churn:      {} burst(s) took {} peers offline",
            counter("hybrid.fault.churn_bursts"),
            counter("hybrid.fault.churn_offline"),
        )?;
        writeln!(
            o,
            "  degraded:   {} downloads started edge-only while control was unreachable",
            counter("hybrid.fault.edge_only_downloads"),
        )?;
        writeln!(o)?;

        // Recovery latency per fault class, from the always-sampled fault
        // spans (span end covers the paced recovery wave / outage window).
        let mut latency: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for span in out.trace.spans() {
            if span.cat != "fault" {
                continue;
            }
            let Some(end) = span.end_us else { continue };
            let dur = end.saturating_sub(span.start_us);
            let e = latency.entry(span.name).or_insert((0, 0));
            e.0 += 1;
            e.1 = e.1.max(dur);
        }
        writeln!(o, "recovery latency (virtual time, per fault class):")?;
        for (name, (n, max_us)) in &latency {
            writeln!(
                o,
                "  {:<18} n={:<3} max recovery {:.1}s",
                name,
                n,
                *max_us as f64 / 1e6
            )?;
        }
        writeln!(o)?;

        // §3.8 alerting: the standard rules replayed over both months'
        // series; the baseline fired nothing and every class was detected
        // (both asserted above).
        writeln!(
            o,
            "alert engine (baseline run): 0 transitions — zero false positives"
        )?;
        writeln!(
            o,
            "time-to-detection (first raise after injection, virtual time):"
        )?;
        for (class, rule, injected_us, detected) in &ttd {
            let at = detected.expect("asserted above");
            writeln!(
                o,
                "  {:<12} rule {:<16} injected day {:<5.2} detected +{:.1}s",
                class,
                rule,
                *injected_us as f64 / 86.4e9,
                (at - injected_us) as f64 / 1e6
            )?;
        }
        writeln!(
            o,
            "alert transitions over the chaos month: {} ({} raises)",
            out.alerts.len(),
            out.alerts.iter().filter(|e| e.raised).count()
        )
    })
}

/// `results/alerts.txt`: the chaos month's raise/clear log, one line per
/// transition in virtual time.
pub fn alerts_txt(out: &SimOutput) -> String {
    render(|o| {
        writeln!(o, "# chaos-run alert transitions (virtual time)")?;
        for e in &out.alerts {
            writeln!(
                o,
                "{:>10.1}s  {}  {:<20} {}",
                e.at_us as f64 / 1e6,
                if e.raised { "RAISE" } else { "clear" },
                e.rule,
                e.message
            )?;
        }
        Ok(())
    })
}

/// `results/chaos.timeseries.json`: the chaos month's series in the
/// `netsession-timeseries/1` schema, with its injected faults and the
/// fleet-wide and per-region detections replayed over it.
pub fn chaos_timeseries_json(out: &SimOutput) -> String {
    let ts = &out.timeseries;
    timeseries_sidecar_json(ts, &injected_faults(out), &replay_standard_alerts(ts))
}
