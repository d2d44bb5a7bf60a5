//! `live_fleet`: a real loopback fleet — control server, edge server and
//! eight `PeerDaemon`s — in the benchmark process, driven by this thread
//! as a closed loop with one download outstanding.
//!
//! A round starts a fresh fleet (set-up: content publishing, both
//! servers, every daemon's join), then has every daemon fetch every
//! object once, in a fixed order. Half the catalog is
//! `infrastructure_only`, half `peer_assisted`; a peer-assisted object
//! gains a seeder with every daemon that fetches it. The seed makes the
//! content; the schedule is fixed, so every run sees the same mix of
//! seeder counts. A run does `--seconds` / 7.5 s rounds, at least four, so
//! each path holds at least 128 downloads. The traced run alternates two
//! plain and two traced rounds; a traced round also reads the fleet's
//! counters, its thread count and an admin scrape.

use crate::check::{verify_download, Tally};
use crate::report::Metrics;
use crate::stats::tail_percentile;
use crate::{secs, Opts};
use netsession_core::hash::{sha256, Digest};
use netsession_core::id::{CpCode, Guid, ObjectId, VersionId};
use netsession_core::msg::{ControlMsg, SwarmMsg};
use netsession_core::policy::DownloadPolicy;
use netsession_core::rng::DetRng;
use netsession_core::time::SimTime;
use netsession_edge::accounting::AccountingLedger;
use netsession_edge::auth::EdgeAuth;
use netsession_edge::store::ContentStore;
use netsession_net::control_server::ControlServer;
use netsession_net::edge_server::EdgeHttpServer;
use netsession_net::framing::{read_msg, write_msg};
use netsession_net::http::http_get;
use netsession_net::peer_daemon::PeerDaemon;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DAEMONS: usize = 8;
/// Objects in the catalog; even indices are infrastructure-only, odd
/// ones peer-assisted.
const OBJECTS: usize = 8;
const OBJECT_BYTES: usize = 1 << 20;
const PIECE_BYTES: usize = 64 * 1024;
/// Four rounds hold 128 downloads per path, ten beyond each p90.
const MIN_ROUNDS: usize = 4;
/// Rough host time of one round, for sizing a run from `--seconds`.
const ROUND_S: f64 = 7.5;
/// How long a daemon holds its edge backstop once the control plane
/// returned peers.
const EDGE_HOLD: Duration = Duration::from_millis(400);

struct Catalog {
    content: Vec<Vec<u8>>,
    digest: Vec<Digest>,
}

impl Catalog {
    fn generate(seed: u64) -> Catalog {
        let mut rng = DetRng::seeded(seed);
        let content: Vec<Vec<u8>> = (0..OBJECTS)
            .map(|_| {
                let mut bytes = vec![0u8; OBJECT_BYTES];
                rng.fill_bytes(&mut bytes);
                bytes
            })
            .collect();
        let digest = content.iter().map(|c| sha256(c)).collect();
        Catalog { content, digest }
    }

    fn peer_assisted(o: usize) -> bool {
        o % 2 == 1
    }
}

struct Fleet {
    edge: EdgeHttpServer,
    control: ControlServer,
    daemons: Vec<PeerDaemon>,
}

impl Fleet {
    /// Publish the catalog, start both servers and join every daemon;
    /// returns the fleet and each daemon's join time in ms.
    fn start(cat: &Catalog, seed: u64) -> (Fleet, Vec<f64>) {
        let auth = EdgeAuth::from_seed(seed);
        let store = Arc::new(ContentStore::new());
        for (o, content) in cat.content.iter().enumerate() {
            let policy = if Catalog::peer_assisted(o) {
                DownloadPolicy::peer_assisted()
            } else {
                DownloadPolicy::infrastructure_only()
            };
            store.publish_content(
                ObjectId(o as u64 + 1),
                CpCode(1),
                content.clone(),
                PIECE_BYTES as u64,
                policy,
            );
        }
        let ledger = Arc::new(AccountingLedger::new());
        let edge = EdgeHttpServer::start("127.0.0.1:0", store, auth.clone(), ledger)
            .expect("edge server starts on loopback");
        let control =
            ControlServer::start("127.0.0.1:0", auth).expect("control server starts on loopback");
        let mut join_ms = Vec::new();
        let daemons = (0..DAEMONS)
            .map(|d| {
                let t = Instant::now();
                let daemon = PeerDaemon::start(
                    control.local_addr(),
                    edge.local_addr(),
                    Guid(d as u128 + 1),
                    true,
                )
                .expect("peer daemon joins the loopback fleet");
                join_ms.push(secs(t) * 1e3);
                daemon
            })
            .collect();
        (
            Fleet {
                edge,
                control,
                daemons,
            },
            join_ms,
        )
    }

    fn stop(self) {
        for d in self.daemons {
            d.shutdown();
        }
        self.control.kill();
        self.edge.shutdown();
    }
}

/// What the download loop of one round measured.
#[derive(Default)]
struct Round {
    /// Time spent in downloads.
    loop_s: f64,
    edge_ms: Vec<f64>,
    swarm_ms: Vec<f64>,
    verified_bytes: u64,
    peer_bytes: u64,
    swarm_fallbacks: u64,
    max_threads: usize,
}

pub fn run(o: &Opts, m: &mut Metrics, tally: &mut Tally) {
    let cat = Catalog::generate(o.seed);
    let (mut edge_ms, mut swarm_ms) = (Vec::new(), Vec::new());
    let (mut plain_loop_s, mut traced_loop_s) = (Vec::new(), Vec::new());
    let rounds = if o.trace {
        4
    } else {
        crate::units(o.seconds, ROUND_S, MIN_ROUNDS)
    };
    for r in 0..rounds {
        let traced = o.trace && r % 2 == 1;
        let t = Instant::now();
        let (fleet, join_ms) = Fleet::start(&cat, o.seed);
        m.sample("setup_s", secs(t));
        let round = download_round(&fleet, &cat, traced, tally);

        let pieces = (round.verified_bytes / PIECE_BYTES as u64) as f64;
        m.sample("run_s", round.loop_s);
        m.sample("events_per_s", pieces / round.loop_s);
        m.sample(
            "goodput_mib_s",
            round.verified_bytes as f64 / (1 << 20) as f64 / round.loop_s,
        );
        if traced {
            traced_loop_s.push(round.loop_s);
            record_layers(m, &fleet, &round, &join_ms);
        } else {
            plain_loop_s.push(round.loop_s);
        }
        edge_ms.extend(&round.edge_ms);
        swarm_ms.extend(&round.swarm_ms);
        fleet.stop();
    }
    eprintln!(
        "# live_fleet: {rounds} rounds, {} edge-only and {} peer-assisted downloads",
        edge_ms.len(),
        swarm_ms.len()
    );
    m.set("edge_download_p50_ms", tail_percentile(&edge_ms, 0.5));
    m.set("edge_download_p90_ms", tail_percentile(&edge_ms, 0.9));
    m.set("swarm_download_p50_ms", tail_percentile(&swarm_ms, 0.5));
    m.set("swarm_download_p90_ms", tail_percentile(&swarm_ms, 0.9));
    if o.trace {
        codec_and_hash(m);
        m.set(
            "trace.overhead_pct",
            crate::overhead_pct(&traced_loop_s, &plain_loop_s),
        );
    }
}

/// Every daemon fetches every object once; each download is checked
/// against the published SHA-256. The schedule is the same every round
/// and seed: at step `s` daemon `d` fetches object `(s + d) % OBJECTS`, so
/// edge-only and peer-assisted downloads alternate and the k-th fetch of a
/// peer-assisted object always finds k - 1 seeders.
fn download_round(fleet: &Fleet, cat: &Catalog, traced: bool, tally: &mut Tally) -> Round {
    let order = (0..OBJECTS).flat_map(|s| (0..DAEMONS).map(move |d| (d, (s + d) % OBJECTS)));
    let mut r = Round::default();
    for (d, o) in order {
        let t = Instant::now();
        let result = fleet.daemons[d].download(ObjectId(o as u64 + 1));
        let elapsed = t.elapsed();
        r.loop_s += elapsed.as_secs_f64();
        let ms = elapsed.as_secs_f64() * 1e3;
        let verified = verify_download(&result, &cat.digest[o]);
        if let (Ok(()), Ok(report)) = (&verified, &result) {
            r.verified_bytes += report.bytes_from_edge + report.bytes_from_peers;
            r.peer_bytes += report.bytes_from_peers;
            if Catalog::peer_assisted(o) {
                r.swarm_ms.push(ms);
                // The edge serves a peer-assisted download only after the
                // hold when the control plane returned peers.
                if report.bytes_from_edge > 0 && elapsed >= EDGE_HOLD {
                    r.swarm_fallbacks += 1;
                }
            } else {
                r.edge_ms.push(ms);
            }
        }
        tally.record(verified);
        if traced {
            r.max_threads = r.max_threads.max(thread_count());
        }
    }
    r
}

fn record_layers(m: &mut Metrics, fleet: &Fleet, round: &Round, join_ms: &[f64]) {
    for &j in join_ms {
        m.sample("live.join_ms", j);
    }
    let daemon_sum = |name: &str| -> f64 {
        fleet
            .daemons
            .iter()
            .map(|d| d.metrics().counter(name).get() as f64)
            .sum()
    };
    let control = fleet.control.metrics();
    let control_msgs = control.counter("net.control.msgs_in").get()
        + control.counter("net.control.msgs_out").get();
    let edge_connections = fleet.edge.metrics.counter("net.edge.connections").get();
    let downloads = (DAEMONS * OBJECTS) as f64;
    let swarm_downloads = round.swarm_ms.len().max(1) as f64;
    m.sample(
        "net.edge_connections_per_download",
        edge_connections as f64 / downloads,
    );
    m.sample(
        "net.swarm_connections_per_download",
        daemon_sum("net.peer.swarm_connections_out") / swarm_downloads,
    );
    m.sample(
        "net.control_msgs_per_download",
        control_msgs as f64 / downloads,
    );
    m.sample("net.query_timeouts", daemon_sum("net.peer.query_timeouts"));
    m.sample(
        "live.swarm_edge_fallback_pct",
        100.0 * round.swarm_fallbacks as f64 / swarm_downloads,
    );
    m.sample(
        "live.peer_bytes_share",
        round.peer_bytes as f64 / round.verified_bytes.max(1) as f64,
    );
    m.sample("live.threads", round.max_threads as f64);
    for _ in 0..5 {
        let t = Instant::now();
        let (status, body) = http_get(fleet.edge.admin_addr(), "/metrics", Duration::from_secs(2))
            .expect("the edge admin endpoint answers");
        assert_eq!(status, 200, "edge /metrics status");
        black_box(body);
        m.sample("http.admin_scrape_ms", secs(t) * 1e3);
    }
}

/// Threads of this process right now.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// The codec and hash calls at the workload's own sizes: a 64 KiB piece
/// frame and a peer query frame through `write_msg`/`read_msg`, and
/// SHA-256 over a 64 KiB piece.
fn codec_and_hash(m: &mut Metrics) {
    let mut rng = DetRng::seeded(7);
    let mut data = vec![0u8; PIECE_BYTES];
    rng.fill_bytes(&mut data);
    let piece = SwarmMsg::Piece {
        piece: 3,
        digest: sha256(&data),
        data: data.clone(),
    };
    let version = VersionId {
        object: ObjectId(2),
        version: 1,
    };
    let query = ControlMsg::QueryPeers {
        token: EdgeAuth::from_seed(7).issue(Guid(1), version, SimTime::ZERO),
        max_peers: 8,
    };
    m.set(
        "codec.piece_roundtrip_ns",
        per_call_ns(200, || roundtrip::<SwarmMsg>(&piece)),
    );
    m.set(
        "codec.query_roundtrip_ns",
        per_call_ns(20_000, || roundtrip::<ControlMsg>(&query)),
    );
    let ns = per_call_ns(200, || {
        black_box(sha256(black_box(&data)));
    });
    m.set(
        "hash.sha256_piece_mib_s",
        PIECE_BYTES as f64 / (1 << 20) as f64 / (ns / 1e9),
    );
}

fn roundtrip<T: netsession_core::codec::Wire>(msg: &T) {
    let mut buf = Vec::new();
    write_msg(&mut buf, black_box(msg)).expect("framing into memory");
    let back: Option<T> = read_msg(&mut buf.as_slice()).expect("frame decodes");
    black_box(back.expect("one frame"));
}

/// Median ns per call of `f` over nine batches of `batch` calls.
fn per_call_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            secs(t) * 1e9 / batch as f64
        })
        .collect();
    crate::stats::median(&samples)
}
