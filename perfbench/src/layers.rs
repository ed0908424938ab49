//! Per-layer replays: the benchmark thread calls one layer's public
//! functions on a workload's own inputs and times them. Each replay is
//! run [`REPS`] times and reports the median ns per call; each
//! repetition is recorded as a span under the caller's parent span.

use crate::rates::median;
use crate::trace::Tracer;
use crossbeam::queue::ArrayQueue;
use sprayer::api::{FlowStateApi, NetworkFunction, VerdictSink};
use sprayer::config::{DispatchMode, LifecycleConfig};
use sprayer::coremap::CoreMap;
use sprayer::engine::{run_nf_batch, PacketClass};
use sprayer::scr::{ScrPlane, UpdateOp};
use sprayer::tables::{LocalTables, SharedTables};
use sprayer_net::{FlowKey, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::ConnContext;
use sprayer_nic::{Nic, NicConfig};
use sprayer_trafficgen::{ChurnConfig, ChurnGen};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per replay; the median is reported.
pub const REPS: usize = 3;
/// Burst size of the queue replay: the runtimes' batch size.
const BURST: usize = 32;
/// Flow-table capacity of the replay tables: the NF default.
const TABLE_CAPACITY: usize = 1 << 16;

/// Time `REPS` runs of `body`, each returning `(ops, busy_ns)` for
/// each of the `K` calls it measures, and return the median ns per op
/// of each.
fn replay_n<const K: usize>(
    tr: &mut Tracer,
    parent: usize,
    names: [&'static str; K],
    mut body: impl FnMut() -> (u64, [u64; K]),
) -> [f64; K] {
    let mut per_op = [const { Vec::new() }; K];
    for _ in 0..REPS {
        let start = Instant::now();
        let (ops, busy) = body();
        let end = Instant::now();
        for k in 0..K {
            tr.record(names[k], Some(parent), start, end, ops, busy[k]);
            per_op[k].push(busy[k] as f64 / ops.max(1) as f64);
        }
    }
    per_op.map(|v| median(&v))
}

/// [`replay_n`] for a single call.
fn replay(
    tr: &mut Tracer,
    parent: usize,
    name: &'static str,
    mut body: impl FnMut() -> (u64, u64),
) -> f64 {
    let [ns] = replay_n(tr, parent, [name], || {
        let (ops, ns) = body();
        (ops, [ns])
    });
    ns
}

/// Time one closure, returning its wall ns.
fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// NIC model matching a runtime's dispatch mode and queue count.
pub fn nic_config(mode: DispatchMode, queues: usize) -> NicConfig {
    match mode {
        DispatchMode::Rss => NicConfig::rss(queues),
        DispatchMode::Sprayer | DispatchMode::Scr => NicConfig::sprayer_uncapped(queues),
    }
}

/// `Nic::steer` per packet.
pub fn nic_steer(tr: &mut Tracer, parent: usize, pkts: &[Packet], cfg: NicConfig) -> f64 {
    replay(tr, parent, "nic.steer", || {
        let mut nic = Nic::new(cfg.clone());
        let ns = timed(|| {
            for p in pkts {
                black_box(nic.steer(black_box(p)));
            }
        });
        (pkts.len() as u64, ns)
    })
}

/// `PacketClass::of` per packet.
pub fn classify(tr: &mut Tracer, parent: usize, pkts: &[Packet]) -> f64 {
    replay(tr, parent, "engine.classify", || {
        let ns = timed(|| {
            for p in pkts {
                black_box(PacketClass::of(black_box(p)));
            }
        });
        (pkts.len() as u64, ns)
    })
}

/// The rx-queue handoff: `ArrayQueue` push and pop per packet, in
/// bursts of [`BURST`]. Returns `(push_ns, pop_ns)`.
pub fn queue(tr: &mut Tracer, parent: usize, pkts: &[Packet]) -> (f64, f64) {
    let q: ArrayQueue<Packet> = ArrayQueue::new(512);
    let mut src: Vec<Packet> = pkts.to_vec();
    let mut dst: Vec<Packet> = Vec::with_capacity(src.len());
    let [push, pop] = replay_n(tr, parent, ["queue.push", "queue.pop"], || {
        let (mut push_ns, mut pop_ns) = (0u64, 0u64);
        while !src.is_empty() {
            let burst = src.split_off(src.len().saturating_sub(BURST));
            push_ns += timed(|| {
                for p in burst {
                    assert!(q.push(p).is_ok(), "a burst fits the queue");
                }
            });
            pop_ns += timed(|| {
                while let Some(p) = q.pop() {
                    dst.push(p);
                }
            });
        }
        std::mem::swap(&mut src, &mut dst);
        (pkts.len() as u64, [push_ns, pop_ns])
    });
    (push, pop)
}

/// `PacketBuilder::tcp`, `Packet::parse` and `Packet::clone` per
/// packet, on frames shaped like `pkts` (same tuple, flags and
/// payload). Returns `(build_ns, parse_ns, clone_ns)`.
pub fn net(tr: &mut Tracer, parent: usize, pkts: &[Packet]) -> (f64, f64, f64) {
    let builder = PacketBuilder::new();
    let shapes: Vec<_> = pkts
        .iter()
        .filter_map(|p| {
            let t = p.tuple()?;
            let flags = p.meta().tcp_flags?;
            Some((t, flags, p.payload().unwrap_or(&[]).to_vec()))
        })
        .collect();
    let build = replay(tr, parent, "net.build", || {
        let mut out = Vec::with_capacity(shapes.len());
        let ns = timed(|| {
            for (t, flags, payload) in &shapes {
                out.push(builder.tcp(*t, 1, 1, *flags, payload));
            }
        });
        (shapes.len() as u64, ns)
    });
    let parse = replay(tr, parent, "net.parse", || {
        let frames: Vec<Vec<u8>> = pkts.iter().map(|p| p.bytes().to_vec()).collect();
        let mut out = Vec::with_capacity(frames.len());
        let ns = timed(|| {
            for f in frames {
                out.push(Packet::parse(f));
            }
        });
        (pkts.len() as u64, ns)
    });
    let clone = replay(tr, parent, "net.clone", || {
        let mut out = Vec::with_capacity(pkts.len());
        let ns = timed(|| out.extend(pkts.iter().cloned()));
        (pkts.len() as u64, ns)
    });
    (build, parse, clone)
}

/// Flow-table insert, get and remove per call through the NF-facing
/// API on one core, on `keys` (gets in reverse order). `shared` picks
/// the threaded runtime's backend, else the simulator's. Returns
/// `(insert, get, remove)`.
pub fn table_ops(
    tr: &mut Tracer,
    parent: usize,
    keys: &[FlowKey],
    shared: bool,
) -> (f64, f64, f64) {
    let map = CoreMap::new(DispatchMode::Sprayer, 1);
    let [insert, get, remove] = replay_n(
        tr,
        parent,
        ["tables.insert", "tables.get", "tables.remove"],
        || {
            let ns = if shared {
                let tables = SharedTables::new(map.clone(), TABLE_CAPACITY);
                table_pass(&mut tables.ctx(0), keys)
            } else {
                let mut tables = LocalTables::new(map.clone(), TABLE_CAPACITY);
                table_pass(&mut tables.ctx(0), keys)
            };
            (keys.len() as u64, ns)
        },
    );
    (insert, get, remove)
}

fn table_pass(ctx: &mut dyn FlowStateApi<ConnContext>, keys: &[FlowKey]) -> [u64; 3] {
    let state = ConnContext {
        allowed: true,
        fins: 0,
    };
    let insert = timed(|| {
        for k in keys {
            black_box(ctx.insert_local_flow(*k, state));
        }
    });
    let get = timed(|| {
        for k in keys.iter().rev() {
            black_box(ctx.get_flow(k));
        }
    });
    let remove = timed(|| {
        for k in keys {
            black_box(ctx.remove_local_flow(k));
        }
    });
    [insert, get, remove]
}

/// Idle sweep cost per reclaimed entry: `keys` inserted at time 0 on a
/// one-core table with an idle timeout, then one sweep past it.
pub fn sweep(tr: &mut Tracer, parent: usize, keys: &[FlowKey], shared: bool) -> f64 {
    const TIMEOUT_US: u64 = 1_000;
    let lifecycle = LifecycleConfig::bounded(TIMEOUT_US);
    let state = ConnContext {
        allowed: true,
        fins: 0,
    };
    let map = CoreMap::new(DispatchMode::Sprayer, 1);
    replay(tr, parent, "tables.sweep", || {
        let ns = if shared {
            let tables = SharedTables::with_lifecycle(map.clone(), TABLE_CAPACITY, lifecycle);
            let mut ctx = tables.ctx(0);
            ctx.touch_clock(0);
            for k in keys {
                ctx.insert_local_flow(*k, state);
            }
            let ns = timed(|| ctx.sweep_idle(TIMEOUT_US + 1));
            assert_eq!(ctx.take_evictions().len(), keys.len(), "sweep reclaims all");
            ns
        } else {
            let mut tables = LocalTables::new(map.clone(), TABLE_CAPACITY);
            tables.set_lifecycle(lifecycle);
            tables.touch_clock(0, 0);
            let mut ctx = tables.ctx(0);
            for k in keys {
                ctx.insert_local_flow(*k, state);
            }
            let ns = timed(|| tables.sweep_idle(0, TIMEOUT_US + 1));
            assert_eq!(
                tables.take_evictions(0).len(),
                keys.len(),
                "sweep reclaims all"
            );
            ns
        };
        (keys.len() as u64, ns)
    })
}

/// `run_nf_batch` per packet over `pkts` in ingress order, in batches
/// of [`BURST`], on a fresh table (after `prime` has been run through
/// it untimed). Connection bits come from `PacketClass::of`.
pub fn nf_batches<NF: NetworkFunction<Flow = ConnContext>>(
    tr: &mut Tracer,
    parent: usize,
    name: &'static str,
    nf: &NF,
    prime: &[Packet],
    pkts: &[Packet],
    mode: DispatchMode,
) -> f64 {
    let conn_bits =
        |ps: &[Packet]| -> Vec<bool> { ps.iter().map(|p| PacketClass::of(p).is_conn).collect() };
    let (prime_conn, conn) = (conn_bits(prime), conn_bits(pkts));
    replay(tr, parent, name, || {
        let tables = SharedTables::new(CoreMap::new(mode, 1), TABLE_CAPACITY);
        let mut ctx = tables.ctx(0);
        let mut sink = VerdictSink::with_capacity(BURST);
        let mut primed = prime.to_vec();
        for (p, c) in primed.chunks_mut(BURST).zip(prime_conn.chunks(BURST)) {
            run_nf_batch(nf, p, c, &mut ctx, &mut sink);
        }
        let mut work = pkts.to_vec();
        let ns = timed(|| {
            for (p, c) in work.chunks_mut(BURST).zip(conn.chunks(BURST)) {
                black_box(run_nf_batch(nf, p, c, &mut ctx, &mut sink));
            }
        });
        (pkts.len() as u64, ns)
    })
}

/// `ChurnGen::next` per packet for `count` packets of `config`.
pub fn churn_gen(tr: &mut Tracer, parent: usize, config: &ChurnConfig, count: usize) -> f64 {
    replay(tr, parent, "trafficgen.gen", || {
        let mut gen = ChurnGen::new(config.clone());
        let mut out = Vec::with_capacity(count);
        let ns = timed(|| out.extend(gen.by_ref().take(count)));
        (out.len() as u64, ns)
    })
}

/// SCR publish (one multicast to every peer) and apply (take from a
/// log plus replay into the replica) per update, on `cores` replicas.
/// Returns `(publish_ns, apply_ns)`.
pub fn scr(tr: &mut Tracer, parent: usize, keys: &[FlowKey], cores: usize) -> (f64, f64) {
    const LOG_CAPACITY: usize = 8_192;
    const BURST_UPDATES: usize = 512;
    let state = ConnContext {
        allowed: true,
        fins: 0,
    };
    let failed = vec![false; cores];
    let mut apply_ns = Vec::with_capacity(REPS);
    let publish = replay(tr, parent, "scr.publish", || {
        let mut plane: ScrPlane<ConnContext> = ScrPlane::new(cores, LOG_CAPACITY);
        let mut replicas = LocalTables::new(CoreMap::new(DispatchMode::Scr, cores), TABLE_CAPACITY);
        let (mut publish, mut apply, mut applied) = (0u64, 0u64, 0u64);
        for (i, burst) in keys.chunks(BURST_UPDATES).enumerate() {
            let origin = i % cores;
            publish += timed(|| {
                for k in burst {
                    black_box(plane.publish(origin, UpdateOp::Put(*k, state), &failed));
                }
            });
            apply += timed(|| {
                for core in 0..cores {
                    while let Some(update) = plane.take(core) {
                        replicas.apply_replica(core, &update.op);
                        applied += 1;
                    }
                }
            });
        }
        apply_ns.push(apply as f64 / applied.max(1) as f64);
        (keys.len() as u64, publish)
    });
    (publish, median(&apply_ns))
}

/// Connection packets only (SYN, SYN-ACK, FIN, RST), in order.
pub fn connection_packets(pkts: &[Packet]) -> Vec<Packet> {
    pkts.iter()
        .filter(|p| p.is_connection_packet())
        .cloned()
        .collect()
}

/// Regular packets only, in order.
pub fn regular_packets(pkts: &[Packet]) -> Vec<Packet> {
    pkts.iter()
        .filter(|p| !p.is_connection_packet())
        .cloned()
        .collect()
}

/// Pure SYNs (no ACK bit): the packets that open firewall contexts.
pub fn syns(pkts: &[Packet]) -> Vec<Packet> {
    pkts.iter()
        .filter(|p| p.meta().tcp_flags == Some(TcpFlags::SYN))
        .cloned()
        .collect()
}

/// Distinct flow keys of `pkts`, in first-seen order.
pub fn flow_keys(pkts: &[Packet]) -> Vec<FlowKey> {
    let mut seen = std::collections::HashSet::new();
    pkts.iter()
        .filter_map(|p| p.tuple().map(|t| t.key()))
        .filter(|k| seen.insert(*k))
        .collect()
}
