//! Output checks. A failed check counts as a failed operation, so it shows
//! in the result line's `failed` count and turns `correct` false.

use netsession_core::hash::Digest;
use netsession_net::peer_daemon::DownloadReport;

/// Compare `got` with `want` byte for byte; on a mismatch, name the first
/// differing line of each.
pub fn same_text(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let mut got_lines = got.lines();
    let mut want_lines = want.lines();
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (None, None) => break,
            (g, w) => {
                return Err(format!(
                    "{what}: line {line} differs: got {:?}, want {:?}",
                    g.unwrap_or("<end>"),
                    w.unwrap_or("<end>")
                ))
            }
        }
    }
    Err(format!("{what}: differs in line endings"))
}

/// Compare `got` with the committed file at `path` (relative to the
/// checkout root).
pub fn same_as_file(got: &str, path: &str) -> Result<(), String> {
    let want =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read reference {path}: {e}"))?;
    same_text(path, got, &want)
}

/// The part of the `scale` binary's stdout that `run_scaled` and the
/// series replay produce without a shard profiler: the merged report
/// (through its `runner:` line) and the `timeseries:` / `detections:`
/// lines. The profiler block between them is dropped.
pub fn unprofiled_scale_lines(scale_txt: &str) -> String {
    let mut out = String::new();
    let mut in_report = true;
    for line in scale_txt.lines() {
        let keep =
            in_report || line.starts_with("timeseries: ") || line.starts_with("detections: ");
        if keep {
            out.push_str(line);
            out.push('\n');
        }
        if line.starts_with("runner: ") {
            in_report = false;
        }
    }
    out
}

/// A live download succeeds when it returned a report whose assembled
/// content hashes to the published object's SHA-256.
pub fn verify_download(
    result: &netsession_core::error::Result<DownloadReport>,
    expected: &Digest,
) -> Result<(), String> {
    match result {
        Ok(r) if r.content_hash == *expected => Ok(()),
        Ok(r) => Err(format!(
            "hash mismatch: got {}, want {}",
            r.content_hash.to_hex(),
            expected.to_hex()
        )),
        Err(e) => Err(format!("download error: {e}")),
    }
}

/// Attempted and failed operations of one run, with the first failure
/// kept for the log.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// First failure message.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("# check failed: {e}");
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsession_core::error::Error;
    use netsession_core::hash::sha256;

    const SCALE: &str = "scaled run: 1 logins\nrunner: shards=2\nshard_profile: shards=2\n  stream ab\ntimeseries: windows=3\ndetections: 0 transitions\n";

    #[test]
    fn identical_text_passes() {
        assert!(same_text("x", "a\nb\n", "a\nb\n").is_ok());
    }

    #[test]
    fn corrupted_reference_is_rejected() {
        let got = unprofiled_scale_lines(SCALE);
        let corrupted = SCALE.replace("shards=2\nshard", "shards=3\nshard");
        let err = same_text("scale.txt", &got, &unprofiled_scale_lines(&corrupted)).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // A truncated or extended reference is a mismatch too.
        assert!(same_text("x", "a\nb\n", "a\n").is_err());
        assert!(same_text("x", "a\n", "a\r\n").is_err());
    }

    #[test]
    fn missing_reference_is_an_error() {
        assert!(same_as_file("x", "no/such/reference.txt").is_err());
    }

    #[test]
    fn unprofiled_lines_drop_the_profiler_block() {
        assert_eq!(
            unprofiled_scale_lines(SCALE),
            "scaled run: 1 logins\nrunner: shards=2\ntimeseries: windows=3\ndetections: 0 transitions\n"
        );
    }

    fn report(content: &[u8]) -> DownloadReport {
        DownloadReport {
            bytes_from_edge: content.len() as u64,
            bytes_from_peers: 0,
            content_hash: sha256(content),
            peer_sources: 0,
        }
    }

    #[test]
    fn hash_mismatch_counts_as_a_failed_download() {
        let expected = sha256(b"published");
        let mut tally = Tally::default();
        tally.record(verify_download(&Ok(report(b"published")), &expected));
        tally.record(verify_download(&Ok(report(b"corrupted")), &expected));
        tally.record(verify_download(
            &Err(Error::Network("reset".into())),
            &expected,
        ));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.first_failure.unwrap().starts_with("hash mismatch"));
    }
}
