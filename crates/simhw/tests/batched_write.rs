//! `NodeBank::set_power_limits` is the per-host writes it batches: for any
//! fleet of dead, stuck and glitched hosts, any host range and any limits —
//! clamping ones included — with the recorder on or off, fanned out on the
//! exec pool or kept on the calling thread, it leaves every host, every
//! segment cache, the returned error, the control-write, clamp and
//! invalidation counters and the `RaplClamp` journal exactly as
//! `set_power_limit` called host by host does, and every host as the
//! per-`Node` `set_power_limit` sequence leaves its `Node`. One property in
//! its own binary, so no other test moves the process-wide counters and
//! journal it compares.

use pmstack_obs::EventKind;
use pmstack_simhw::power::CoreClass;
use pmstack_simhw::{
    quartz_spec, FaultKind, Hertz, HostStep, LoadModel, Node, NodeBank, NodeId, PowerModel,
    Seconds, SimHwError, Watts,
};
use proptest::prelude::*;

struct FlatLoad;

impl LoadModel for FlatLoad {
    fn node_power_at(&self, model: &PowerModel, eps: f64, lead: Hertz) -> Watts {
        model.node_power(
            eps,
            &[CoreClass {
                count: model.spec().cores_used_per_node,
                kappa: 2.6,
                freq: lead,
            }],
        )
    }
}

/// Step `bank` until every segment is settled (or 400 steps), so a write
/// has caches to invalidate.
fn settle(bank: &mut NodeBank, model: &PowerModel) {
    let n = bank.len();
    let mut ops = vec![None; n];
    let mut results = vec![HostStep::Skipped; n];
    for _ in 0..400 {
        for (h, op) in ops.iter_mut().enumerate() {
            *op = Some(bank.operating_point(h, model, &FlatLoad));
        }
        if bank.step_all(Seconds(0.2), &ops, &mut results, false) {
            return;
        }
    }
}

/// What a write did beyond the columns: the counters it moved and the
/// clamp events it journaled, in order.
#[derive(Debug, PartialEq)]
struct Trace {
    control_writes: u64,
    clamped: u64,
    invalidated: u64,
    clamps: Vec<(u64, u64, u64)>,
}

fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    pmstack_obs::reset();
    let out = f();
    let snap = pmstack_obs::snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    let clamps = (snap.events.iter())
        .filter_map(|e| match e.kind {
            EventKind::RaplClamp {
                node,
                requested_w,
                applied_w,
            } => Some((node, requested_w.to_bits(), applied_w.to_bits())),
            _ => None,
        })
        .collect();
    let trace = Trace {
        control_writes: count("simhw.bank.control_writes"),
        clamped: count("simhw.rapl.clamped"),
        invalidated: count("simhw.bank.shard.invalidated"),
        clamps,
    };
    (out, trace)
}

/// Everything a host's columns hold, as the `Node` the bank materialises
/// (registers, filters, latches and the pending glitch included), and
/// every segment cache.
fn state(bank: &NodeBank) -> (Vec<String>, Vec<(bool, bool)>) {
    let hosts = (0..bank.len())
        .map(|h| format!("{:?}", bank.node(h)))
        .collect();
    let segs = (0..bank.num_segments())
        .map(|s| (bank.segment_settled(s), bank.segment_stable(s)))
        .collect();
    (hosts, segs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_batched_write_is_the_per_host_writes_in_order(
        n in 2usize..48,
        segment_hosts in 1usize..9,
        faults in prop::collection::vec((0usize..48, 0u8..6), 0..4),
        asks in prop::collection::vec((0u8..5, 40.0f64..320.0), 48..49),
        lo in 0usize..48,
        len in 0usize..48,
        record in 0u8..2,
        pool in 0u8..2,
    ) {
        // One host in five is left alone; the rest ask for limits that
        // reach past the settable range on both sides.
        let limits: Vec<Option<f64>> = asks.iter().map(|&(skip, w)| (skip > 0).then_some(w)).collect();
        let (record, pool) = (record == 1, pool == 1);
        let model = PowerModel::new(quartz_spec()).unwrap();
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| Node::new(NodeId(i), &model, 0.9 + 0.02 * (i % 12) as f64).unwrap())
            .collect();
        let mut bank = NodeBank::from_nodes(nodes.clone());
        bank.set_segment_hosts(segment_hosts);
        settle(&mut bank, &model);
        for node in &mut nodes {
            *node = bank.node(node.id().0);
        }
        for &(h, kind) in &faults {
            let kind = match kind {
                0 => FaultKind::NodeDeath,
                1 => FaultKind::StuckRapl { pinned_w: 150.0 },
                2 => FaultKind::TransientMsrFault,
                _ => continue,
            };
            if h < n {
                nodes[h].inject(kind);
                bank.inject(h, kind);
            }
        }
        let (lo, hi) = (lo.min(n), (lo + len).min(n));
        let limit_of = |h: usize| limits[h].map(Watts);
        if record {
            pmstack_obs::enable();
        } else {
            pmstack_obs::disable();
        }

        // The reference: each `Node` in host order, up to the first error.
        let mut want_err = None;
        for (h, node) in nodes.iter_mut().enumerate().take(hi).skip(lo) {
            if let Some(limit) = limit_of(h) {
                if let Err(e) = node.set_power_limit(limit) {
                    want_err = Some((h, e));
                    break;
                }
            }
        }

        let mut one_by_one = bank.clone();
        let (got_one, trace_one) = traced(|| {
            let mut written = 0;
            for h in lo..hi {
                if let Some(limit) = limit_of(h) {
                    one_by_one.set_power_limit(h, limit).map_err(|e| (h, e))?;
                    written += 1;
                }
            }
            Ok::<usize, (usize, SimHwError)>(written)
        });
        let faulted = faults.iter().any(|&(h, kind)| h < n && kind < 3);
        let spans_segments = hi > lo && (hi - 1) / segment_hosts > lo / segment_hosts;
        let (got, trace) = traced(|| {
            let mut write = || bank.set_power_limits(lo..hi, limit_of);
            if pool {
                write()
            } else {
                pmstack_exec::sequential_scope(write)
            }
        });
        pmstack_obs::enable();
        // A write over two segments that no host can fail, on the pool, is
        // the chunked one.
        if record && pool && spans_segments && !faulted && pmstack_exec::workers() > 1 {
            let fanouts = pmstack_obs::snapshot().counter("exec.pool.fanouts").unwrap_or(0);
            prop_assert!(fanouts > 0, "the write did not fan out");
        }

        prop_assert_eq!(&got, &got_one);
        match (&got, want_err) {
            (Err(err), Some(want)) => prop_assert_eq!(err, &want),
            (Ok(written), None) => {
                let asked = (lo..hi).filter(|&h| limits[h].is_some()).count();
                prop_assert_eq!(*written, asked);
            }
            (got, want) => prop_assert!(false, "{:?} against {:?}", got, want),
        }
        if record {
            prop_assert_eq!(&trace, &trace_one);
        }
        let (hosts, segs) = state(&bank);
        prop_assert_eq!(&(hosts.clone(), segs), &state(&one_by_one));
        for (h, node) in nodes.iter().enumerate() {
            prop_assert_eq!(&hosts[h], &format!("{node:?}"), "host {}", h);
        }
    }
}
