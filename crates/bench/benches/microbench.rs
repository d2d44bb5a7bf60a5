//! Criterion micro-benchmarks for the hot paths: content hashing, wire
//! codec, piece bookkeeping, max-min fair recomputation, the selection
//! ladder, the event queue, and the analytics CDF machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsession_control::directory::{DirectoryNode, PeerRecord};
use netsession_control::selection::{Querier, SelectionPolicy, Selector};
use netsession_core::codec::Wire;
use netsession_core::hash::Sha256;
use netsession_core::id::{AsNumber, Guid, ObjectId, VersionId};
use netsession_core::msg::{ControlMsg, NatType, PeerAddr};
use netsession_core::piece::PieceMap;
use netsession_core::rng::DetRng;
use netsession_core::time::SimTime;
use netsession_core::units::Bandwidth;
use netsession_sim::engine::EventQueue;
use netsession_sim::flownet::FlowNet;
use netsession_sim::queue::{BinaryHeapSched, EventSched, TimingWheel};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [1024usize, 65536, 1 << 20] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| {
                let mut h = Sha256::new();
                h.update(data);
                h.finalize()
            });
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let msg = ControlMsg::Login {
        guid: Guid(123456789),
        secondary_guids: vec![netsession_core::id::SecondaryGuid([1, 2, 3, 4, 5]); 5],
        uploads_enabled: true,
        software_version: 40100,
        nat: NatType::PortRestricted,
        addr: PeerAddr {
            ip: 0x7f000001,
            port: 8443,
        },
    };
    let payload = msg.to_payload();
    c.bench_function("codec/encode_login", |b| b.iter(|| msg.to_payload()));
    c.bench_function("codec/decode_login", |b| {
        b.iter(|| ControlMsg::from_payload(&payload).unwrap())
    });
}

fn bench_piecemap(c: &mut Criterion) {
    c.bench_function("piecemap/set_clear_4096", |b| {
        b.iter(|| {
            let mut m = PieceMap::empty(4096);
            for i in 0..4096 {
                m.set(i);
            }
            m.is_complete()
        })
    });
    let mut mine = PieceMap::empty(4096);
    let theirs = PieceMap::full(4096);
    for i in (0..4096).step_by(2) {
        mine.set(i);
    }
    c.bench_function("piecemap/wanted_from_4096", |b| {
        b.iter(|| mine.wanted_from(&theirs).len())
    });
}

fn bench_flownet(c: &mut Criterion) {
    let mut group = c.benchmark_group("flownet/recompute");
    for flows in [100usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &flows| {
            let mut rng = DetRng::seeded(1);
            let mut net = FlowNet::new();
            let nodes: Vec<_> = (0..flows / 4 + 2)
                .map(|_| {
                    net.add_node(
                        Bandwidth::from_mbps(rng.range_f64(0.5, 10.0)),
                        Bandwidth::from_mbps(rng.range_f64(5.0, 100.0)),
                    )
                })
                .collect();
            for _ in 0..flows {
                let s = nodes[rng.index(nodes.len())];
                let mut d = nodes[rng.index(nodes.len())];
                while d == s {
                    d = nodes[rng.index(nodes.len())];
                }
                net.add_flow(s, d, None);
            }
            b.iter(|| net.recompute());
        });
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut dn = DirectoryNode::new(0);
    let ver = VersionId {
        object: ObjectId(1),
        version: 1,
    };
    for g in 0..5000u64 {
        dn.register(
            PeerRecord {
                guid: Guid(g as u128),
                addr: PeerAddr {
                    ip: g as u32,
                    port: 1,
                },
                asn: AsNumber(100 + (g % 50) as u32),
                area: (g % 20) as u16,
                zone: (g % 9) as u8,
                nat: NatType::FullCone,
            },
            ver,
        );
    }
    let selector = Selector::new(SelectionPolicy::default());
    let querier = Querier {
        guid: Guid(u128::MAX),
        asn: AsNumber(100),
        area: 1,
        zone: 1,
        nat: NatType::PortRestricted,
    };
    let mut rng = DetRng::seeded(2);
    c.bench_function("selection/ladder_5000_holders", |b| {
        b.iter(|| selector.select(&mut dn, ver, &querier, &mut rng).len())
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("engine/schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut rng = DetRng::seeded(3);
            for i in 0..10_000u64 {
                q.schedule(SimTime(rng.next_u64() % 1_000_000_000), i);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            count
        })
    });
}

fn bench_queue_backends(c: &mut Criterion) {
    // Steady-state pop-then-reschedule at a deep queue: the shape of the
    // sim's hot loop, where the wheel's O(1) placement beats heap sifts.
    // (perfbench's event_queue family is the authoritative A/B; this keeps
    // the comparison visible from `cargo bench` too.)
    fn steady<S: EventSched<u64> + Default>(depth: usize, ops: usize) -> u64 {
        let mut rng = DetRng::seeded(0x716266);
        let mut q = S::default();
        let mut seq = 0u64;
        for _ in 0..depth {
            q.push(SimTime(rng.next_u64() % 1_000_000_000), seq, seq);
            seq += 1;
        }
        let mut acc = 0u64;
        for _ in 0..ops {
            let (at, _, e) = q.pop().unwrap();
            acc ^= e;
            q.push(
                SimTime(at.as_micros() + 1 + rng.next_u64() % 60_000_000),
                seq,
                seq,
            );
            seq += 1;
        }
        acc
    }
    let mut group = c.benchmark_group("queue/steady_50k_depth");
    group.bench_function("timing_wheel", |b| {
        b.iter(|| steady::<TimingWheel<u64>>(50_000, 10_000))
    });
    group.bench_function("binary_heap", |b| {
        b.iter(|| steady::<BinaryHeapSched<u64>>(50_000, 10_000))
    });
    group.finish();
}

fn bench_hashers(c: &mut Criterion) {
    let mut rng = DetRng::seeded(0x6b657973);
    let keys: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
    let mut group = c.benchmark_group("hash/u64_keys_100k");
    group.bench_function("fx", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &k in &keys {
                let mut h = netsession_core::fxhash::FxHasher::default();
                h.write_u64(k);
                acc ^= h.finish();
            }
            acc
        })
    });
    group.bench_function("siphash", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &k in &keys {
                let mut h = DefaultHasher::default();
                h.write_u64(k);
                acc ^= h.finish();
            }
            acc
        })
    });
    group.finish();
}

fn bench_scrape(c: &mut Criterion) {
    // Registry shaped like a real run's: what one live `/metrics` scrape
    // or a monitor poll walks.
    let reg = netsession_obs::MetricsRegistry::new();
    for i in 0..40 {
        reg.counter(&format!("bench.counter_{i:02}")).add(i);
        reg.gauge(&format!("bench.gauge_{i:02}")).set(i as i64);
    }
    for i in 0..15 {
        let h = reg.histogram(&format!("bench.histo_{i:02}"));
        for v in 0..200 {
            h.record(v * 13);
        }
    }
    let mut group = c.benchmark_group("obs/scrape");
    group.bench_function("fresh", |b| b.iter(|| reg.scrape().counters.len()));
    group.finish();
}

fn bench_cdf(c: &mut Criterion) {
    let mut rng = DetRng::seeded(4);
    let values: Vec<f64> = (0..100_000).map(|_| rng.lognormal(1.0, 1.5)).collect();
    c.bench_function("analytics/cdf_build_100k", |b| {
        b.iter(|| netsession_analytics::stats::Cdf::from_values(values.clone()).len())
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_codec,
    bench_piecemap,
    bench_flownet,
    bench_selection,
    bench_event_queue,
    bench_queue_backends,
    bench_hashers,
    bench_scrape,
    bench_cdf
);
criterion_main!(benches);
