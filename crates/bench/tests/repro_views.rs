//! Every `repro` view renders at a tiny scale, and each distinct month is
//! simulated exactly once however many views read it. (`chaos` is left
//! out: its detection asserts are gated at 2000 peers in
//! `scripts/check.sh`.)

use std::process::Command;

#[test]
fn every_view_renders_from_months_simulated_once() {
    let views = [
        "headline",
        "table1",
        "table2",
        "table3",
        "table4",
        "fig2",
        "fig3a",
        "fig3b",
        "fig3c",
        "fig4",
        "fig5",
        "fig6",
        "fig6_sweep",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "outcomes",
        "mobility",
        "ablate_locality",
        "ablate_backstop",
        "ablate_uploadcap",
        "ablate_enablefrac",
        "ablate_sessions",
    ];
    let dir = std::env::temp_dir().join(format!("repro-views-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "300", "--downloads", "300"])
        .args(views)
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro failed: {stderr}");
    // The standard month, 3 more for the A4 sweep (40 peers returned is
    // the standard month), 2 locality months, and 1 + 1 + 5 + 2 further
    // months for the backstop, upload-cap, enabled-fraction and session
    // ablations, whose baseline rows are the standard month.
    assert_eq!(stderr.matches("# repro: month ").count(), 15, "{stderr}");
    for view in views {
        let report = std::fs::read_to_string(dir.join(format!("results/{view}.txt")))
            .unwrap_or_else(|e| panic!("{view}: {e}"));
        assert!(report.lines().count() > 1, "{view}: {report}");
    }
    assert!(dir
        .join("results/month.300x300.s20121001.trace.json")
        .exists());
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
