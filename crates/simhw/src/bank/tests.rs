use super::segments::SegCache;
use super::*;
use crate::classes::{standard_classes, ClassId};
use crate::power::{CoreClass, LoadModel, OperatingPoint, PowerModel};
use crate::quartz::quartz_spec;
use crate::rapl::RaplDomain;
use crate::units::Seconds;

struct FlatLoad {
    kappa: f64,
}

impl LoadModel for FlatLoad {
    fn node_power_at(&self, model: &PowerModel, eps: f64, lead: Hertz) -> Watts {
        model.node_power(
            eps,
            &[CoreClass {
                count: model.spec().cores_used_per_node,
                kappa: self.kappa,
                freq: lead,
            }],
        )
    }
}

fn bits_of(col: &[Hertz]) -> Vec<u64> {
    col.iter().map(|f| f.value().to_bits()).collect()
}

fn fleet(n: usize) -> (PowerModel, Vec<Node>) {
    let model = PowerModel::new(quartz_spec()).unwrap();
    let nodes = (0..n)
        .map(|i| Node::new(NodeId(i), &model, 0.9 + 0.02 * i as f64).unwrap())
        .collect();
    (model, nodes)
}

/// Step the reference fleet and the bank in lockstep, asserting every
/// observable is bit-identical after each iteration.
fn assert_lockstep(
    model: &PowerModel,
    load: &FlatLoad,
    reference: &mut [Node],
    bank: &mut NodeBank,
    dt: Seconds,
    iterations: usize,
) {
    let n = reference.len();
    let mut ops = vec![None; n];
    let mut results = vec![HostStep::Skipped; n];
    for _ in 0..iterations {
        for (h, node) in reference.iter().enumerate() {
            ops[h] = (!node.is_dead()).then(|| bank.operating_point(h, model, load));
        }
        bank.step_all(dt, &ops, &mut results, false);
        for node in reference.iter_mut() {
            let _ = node.try_step(model, load, dt);
        }
        for (h, node) in reference.iter().enumerate() {
            assert_eq!(
                bank.energy(h).value().to_bits(),
                node.energy().value().to_bits(),
                "energy diverged on host {h}"
            );
            assert_eq!(
                bank.enforced_limit(h).value().to_bits(),
                node.enforced_limit().value().to_bits(),
                "enforced limit diverged on host {h}"
            );
        }
    }
}

#[test]
fn bank_steps_bit_identically_to_nodes() {
    let (model, mut reference) = fleet(5);
    let load = FlatLoad { kappa: 2.7 };
    let mut bank = NodeBank::from_nodes(reference.clone());
    for (h, node) in reference.iter_mut().enumerate() {
        node.set_power_limit(Watts(170.0 + 10.0 * h as f64))
            .unwrap();
        bank.set_power_limit(h, Watts(170.0 + 10.0 * h as f64))
            .unwrap();
    }
    reference[2]
        .set_freq_cap(Some(Hertz::from_ghz(1.9)))
        .unwrap();
    bank.set_freq_cap(2, Some(Hertz::from_ghz(1.9))).unwrap();
    assert_lockstep(&model, &load, &mut reference, &mut bank, Seconds(0.2), 40);
}

#[test]
fn bank_replicates_fault_semantics() {
    let (model, mut reference) = fleet(4);
    let load = FlatLoad { kappa: 2.5 };
    let mut bank = NodeBank::from_nodes(reference.clone());
    for (h, kind) in [
        (0, FaultKind::NodeDeath),
        (1, FaultKind::StuckRapl { pinned_w: 140.0 }),
        (2, FaultKind::TelemetryDropout { iterations: 3 }),
        (3, FaultKind::TransientMsrFault),
    ] {
        reference[h].inject(kind);
        bank.inject(h, kind);
    }
    assert!(!bank.is_alive(0));
    assert!(!bank.quiescent());
    // The stuck write latched the pinned value on both sides.
    assert_eq!(
        bank.power_limit(1).value().to_bits(),
        reference[1].power_limit().value().to_bits()
    );
    assert_lockstep(&model, &load, &mut reference, &mut bank, Seconds(0.2), 6);
    assert!(bank.quiescent(), "dropout and glitch should be consumed");
}

/// `step_all` never replays, so every one of the 20 two-host segments is
/// stepped on every call — enough to fan out (a one-segment bank never
/// does, whatever `parallel` says).
#[test]
fn parallel_and_sequential_stepping_agree() {
    let (model, nodes) = fleet(40);
    let load = FlatLoad { kappa: 2.6 };
    let mut seq = NodeBank::from_nodes(nodes.clone());
    let mut par = NodeBank::from_nodes(nodes);
    seq.set_segment_hosts(2);
    par.set_segment_hosts(2);
    for h in 0..seq.len() {
        seq.set_power_limit(h, Watts(180.0)).unwrap();
        par.set_power_limit(h, Watts(180.0)).unwrap();
    }
    let mut results_a = vec![HostStep::Skipped; seq.len()];
    let mut results_b = vec![HostStep::Skipped; par.len()];
    let mut ops = vec![None; seq.len()];
    for _ in 0..10 {
        for (h, op) in ops.iter_mut().enumerate() {
            *op = Some(seq.operating_point(h, &model, &load));
        }
        let sa = seq.step_all(Seconds(0.2), &ops, &mut results_a, false);
        let sb = par.step_all(Seconds(0.2), &ops, &mut results_b, true);
        assert_eq!(sa, sb);
        assert_eq!(results_a, results_b);
    }
    for h in 0..seq.len() {
        assert_eq!(
            seq.energy(h).value().to_bits(),
            par.energy(h).value().to_bits()
        );
    }
}

/// Every column a step writes, as bits — the energy both as read and as
/// stored — plus the segment caches and pending counts.
fn stepped_state(bank: &NodeBank) -> (Vec<[u64; 5]>, Vec<SegCache>, Vec<u64>) {
    let n = bank.len();
    let s = bank.sockets;
    let rows = (0..n * s)
        .map(|i| {
            let h = i / s;
            [
                bank.energy(h).value().to_bits(),
                bank.energy[i].value().to_bits(),
                bank.enforced[i].value().to_bits(),
                bank.last_freq[h].value().to_bits(),
                bank.replay_delta[h].value().to_bits(),
            ]
        })
        .collect();
    (rows, bank.seg.clone(), bank.pending.clone())
}

/// The multi-segment fan-out engages from `PAR_MIN_STEPPED` stepped
/// segments, splitting them between chunks that also carry replayed
/// segments: pin it here on 41 hosts in 2-host segments (21, the last
/// one ragged). A replay-only iteration and churn's one dirty segment
/// plan a single chunk; two dirty segments at the ends of the bank fan
/// out while every other segment holds pending replays, which the
/// stepped ones must write first; many dirty segments beside a few
/// replayed ones fan out too. Fanned across the pool, kept on the
/// calling thread by `sequential_scope`, or stepped with `parallel`
/// off, every bit, cache slot, count and report must agree.
#[test]
fn fanned_out_segments_agree_with_the_calling_thread() {
    let (model, nodes) = fleet(41);
    let load = FlatLoad { kappa: 2.6 };
    let dt = Seconds(0.2);
    let mut pool = NodeBank::from_nodes(nodes);
    pool.set_segment_hosts(2);
    let (n, segs) = (pool.len(), pool.num_segments());
    let mut scoped = pool.clone();
    let mut single = pool.clone();
    let mut ops = vec![None; n];
    let mut results = [
        vec![HostStep::Skipped; n],
        vec![HostStep::Skipped; n],
        vec![HostStep::Skipped; n],
    ];
    let mut iterate = |banks: [&mut NodeBank; 3], ops: &mut [Option<OperatingPoint>]| {
        let [pool, scoped, single] = banks;
        for (h, op) in ops.iter_mut().enumerate() {
            *op = Some(pool.operating_point(h, &model, &load));
        }
        let stepped = (0..segs)
            .filter(|&s| !pool.segment_replayable(s, dt))
            .count();
        let want = match stepped {
            0 | 1 => 1,
            _ => pmstack_exec::workers().min(stepped),
        };
        assert_eq!(pool.step_chunks(dt), want, "{stepped} stepped segments");
        let [a, b, c] = &mut results;
        let report = pool.step_all_partial(dt, ops, a, true);
        let in_scope = pmstack_exec::sequential_scope(|| scoped.step_all_partial(dt, ops, b, true));
        let one_chunk = single.step_all_partial(dt, ops, c, false);
        assert_eq!(report, in_scope);
        assert_eq!(report, one_chunk);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(stepped_state(pool), stepped_state(scoped));
        assert_eq!(stepped_state(pool), stepped_state(single));
        report
    };

    for _ in 0..3 {
        iterate([&mut pool, &mut scoped, &mut single], &mut ops);
    }
    assert!((0..segs).all(|s| pool.segment_replayable(s, dt)));

    // Replay only: every segment counts, none steps.
    for _ in 0..3 {
        let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
        assert_eq!(
            (report.segments_replayed, report.segments_stepped),
            (segs, 0)
        );
    }
    assert!(pool.pending.iter().all(|&k| k >= 3));

    // Churn: host 20's limit alternates, so its segment (the middle one)
    // steps and the other 20 replay.
    for i in 0..4 {
        for bank in [&mut pool, &mut scoped, &mut single] {
            bank.set_power_limit(20, Watts(180.0 + (i % 2) as f64))
                .unwrap();
        }
        let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
        assert_eq!(
            (report.segments_replayed, report.segments_stepped),
            (segs - 1, 1)
        );
    }

    for _ in 0..500 {
        if (0..segs).all(|s| pool.segment_replayable(s, dt)) {
            break;
        }
        iterate([&mut pool, &mut scoped, &mut single], &mut ops);
    }

    // Two dirty segments, one at each end: each chunk steps one, after
    // writing its pending replays, beside segments that keep counting.
    for i in 0..3 {
        for bank in [&mut pool, &mut scoped, &mut single] {
            bank.set_power_limit(0, Watts(170.0 + i as f64)).unwrap();
            bank.set_power_limit(n - 1, Watts(170.0 + i as f64))
                .unwrap();
        }
        let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
        assert_eq!(
            (report.segments_replayed, report.segments_stepped),
            (segs - 2, 2)
        );
        assert!(pool.pending[1..segs - 1].iter().all(|&k| k > 0));
    }

    // Many dirty: 17 segments rewritten, a dropout on the ragged tail.
    for s in 0..17 {
        let h = pool.segment_range(s).start;
        for bank in [&mut pool, &mut scoped, &mut single] {
            bank.set_power_limit(h, Watts(150.0 + s as f64)).unwrap();
        }
    }
    for bank in [&mut pool, &mut scoped, &mut single] {
        bank.inject(40, FaultKind::TelemetryDropout { iterations: 2 });
    }
    for _ in 0..6 {
        let report = iterate([&mut pool, &mut scoped, &mut single], &mut ops);
        assert!(report.segments_replayed >= 3 && report.segments_stepped >= 17);
    }
    for bank in [&mut pool, &mut scoped, &mut single] {
        bank.apply_pending_replays();
    }
    assert!(pool.pending.iter().all(|&k| k == 0));
    assert_eq!(stepped_state(&pool), stepped_state(&scoped));
    assert_eq!(stepped_state(&pool), stepped_state(&single));
}

/// A replay counts; reads accrue the count over each host's socket
/// cells, and a dead host's delta is `+0.0`. For every socket count and
/// dead set, `k` replays of a settled bank must read exactly the bits
/// `k` full steps leave — energy and the materialised `Node`'s
/// energy-status MSR — without reading the `ops` or touching the
/// `results` handed over, and once applied, the raw energy column must
/// be the stepped one.
#[test]
fn replaying_a_settled_bank_is_bit_identical_to_stepping_it() {
    let load = FlatLoad { kappa: 2.6 };
    let dt = Seconds(0.21);
    for sockets in [1usize, 2, 3] {
        let mut spec = quartz_spec();
        spec.sockets_per_node = sockets;
        spec.cores_used_per_node = spec
            .cores_used_per_node
            .min(sockets * spec.cores_per_socket);
        let model = PowerModel::new(spec).unwrap();
        let nodes: Vec<Node> = (0..37)
            .map(|i| Node::new(NodeId(i), &model, 0.9 + 0.01 * (i % 13) as f64).unwrap())
            .collect();
        for dead in [vec![], vec![5], vec![0, 1, 2, 17, 35, 36]] {
            let mut bank = NodeBank::from_nodes(nodes.clone());
            bank.set_segment_hosts(8);
            assert_eq!(bank.sockets(), sockets);
            let n = bank.len();
            for h in 0..n {
                bank.set_power_limit(h, Watts(80.0 * sockets as f64))
                    .unwrap();
            }
            for &h in &dead {
                bank.inject(h, FaultKind::NodeDeath);
            }
            assert_eq!(bank.alive_count(), n - dead.len());
            let mut ops = vec![None; n];
            let mut results = vec![HostStep::Skipped; n];
            let mut settled = false;
            for _ in 0..2000 {
                for (h, op) in ops.iter_mut().enumerate() {
                    *op = bank
                        .is_alive(h)
                        .then(|| bank.operating_point(h, &model, &load));
                }
                settled = bank.step_all(dt, &ops, &mut results, false);
                if settled {
                    break;
                }
            }
            assert!(settled, "enforcement must reach a bitwise fixed point");
            assert!((0..bank.num_segments()).all(|s| bank.segment_replayable(s, dt)));
            assert!(!bank.segment_replayable(0, Seconds(0.2)), "other dt");

            let mut stepped = bank.clone();
            let expected = results.clone();
            let junk = vec![None; n];
            let bits = |col: &[Joules]| col.iter().map(|e| e.value().to_bits()).collect::<Vec<_>>();
            let reads = |b: &NodeBank| bits(&b.energies().collect::<Vec<_>>());
            let raw = bits(&bank.energy);
            for k in 1..=700 {
                stepped.step_all(dt, &ops, &mut results, false);
                assert_eq!(results, expected);
                let mut untouched = vec![HostStep::Stale; n];
                let report = bank.step_all_partial(dt, &junk, &mut untouched, false);
                assert_eq!(report.segments_replayed, bank.num_segments());
                assert!(untouched.iter().all(|&r| r == HostStep::Stale));
                assert_eq!(bits(&bank.energy), raw, "a replay wrote a cell");
                if k % 100 == 0 || k < 4 {
                    assert_eq!(
                        reads(&bank),
                        reads(&stepped),
                        "{sockets} sockets, dead hosts {dead:?}, {k} replays"
                    );
                    for h in [0, 17, n - 1] {
                        let status = |node: Node| {
                            (node.packages().iter())
                                .map(|p| p.msrs().read(address::PKG_ENERGY_STATUS))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(status(bank.node(h)), status(stepped.node(h)));
                    }
                }
            }
            bank.apply_pending_replays();
            assert_eq!(
                bits(&bank.energy),
                bits(&stepped.energy),
                "{sockets} sockets, dead hosts {dead:?}"
            );
            assert_eq!(bits_of(&bank.last_freq), bits_of(&stepped.last_freq));

            // A load swap the bank cannot see: the caller invalidates,
            // and the next call steps with the new operating points.
            bank.invalidate_segments();
            let report = bank.step_all_partial(dt, &ops, &mut results, false);
            assert_eq!(report.segments_replayed, 0);
        }
    }
}

/// The PP0/DRAM plane cells advance for every host a step advances,
/// replayed segments included: on a bank whose part has planes, `N` partial
/// steps (segments settle, replay, and one is re-dirtied by a limit write
/// halfway) leave every plane cell, and every PKG energy, bit for bit where
/// `N` full steps over the same operating points leave them.
#[test]
fn partial_steps_meter_what_full_steps_do() {
    let load = FlatLoad { kappa: 2.6 };
    let dt = Seconds(0.21);
    let class = standard_classes().swap_remove(0);
    let model = PowerModel::new(class.spec.clone()).unwrap();
    let nodes: Vec<Node> = (0..11)
        .map(|i| {
            let eps = 0.9 + 0.01 * (i % 13) as f64;
            Node::with_class(NodeId(i), ClassId(0), &class, &model, eps).unwrap()
        })
        .collect();
    let mut full = NodeBank::from_nodes(nodes);
    full.set_segment_hosts(4);
    for h in 0..full.len() {
        full.set_power_limit(h, Watts(150.0)).unwrap();
    }
    full.inject(6, FaultKind::NodeDeath);
    let mut partial = full.clone();
    let n = full.len();
    let mut ops = vec![None; n];
    let (mut res_full, mut res_partial) = (vec![HostStep::Skipped; n], vec![HostStep::Skipped; n]);
    let mut replayed = 0;
    for i in 0..600 {
        if i == 300 {
            full.set_power_limit(9, Watts(140.0)).unwrap();
            partial.set_power_limit(9, Watts(140.0)).unwrap();
        }
        for (h, op) in ops.iter_mut().enumerate() {
            *op = full
                .is_alive(h)
                .then(|| full.operating_point(h, &model, &load));
        }
        full.step_all(dt, &ops, &mut res_full, false);
        replayed += partial
            .step_all_partial(dt, &ops, &mut res_partial, false)
            .segments_replayed;
    }
    assert!(replayed > 0, "no segment settled into a replay");
    for h in 0..n {
        for d in [RaplDomain::Pkg, RaplDomain::Pp0, RaplDomain::Dram] {
            let bits = |b: &NodeBank| b.domain_energy(h, d).unwrap().value().to_bits();
            assert_eq!(bits(&partial), bits(&full), "{d} on host {h}");
            let node = |b: &NodeBank| b.node(h).domain_energy(d).unwrap().value().to_bits();
            assert_eq!(
                node(&partial),
                bits(&full),
                "{d} of the materialised host {h}"
            );
        }
    }
    let metered = |h| full.domain_energy(h, RaplDomain::Pp0).unwrap();
    assert!(metered(0) > Joules::ZERO);
    assert_eq!(metered(6), Joules::ZERO, "a dead host meters nothing");
}

/// A lock bit preset through the hardware backdoor makes `msr-safe`
/// refuse the limit write. The bank checks its raw-register column, the
/// `Node` its device; both refuse the same package with the same error
/// and leave the packages before it reprogrammed. The bank ingests the
/// locked register and materialises it back bit for bit (the round trip
/// of every other state is in the lockstep harness, `tests/lockstep/` at
/// the workspace root).
#[test]
fn locked_pl1_register_refuses_the_write_on_both_sides() {
    use crate::error::SimHwError;
    const LOCK: u64 = 1 << 63;
    for locked in [vec![0], vec![1], vec![0, 1]] {
        let (_, mut reference) = fleet(2);
        for &k in &locked {
            reference[1].lock_pl1(k);
        }
        let mut bank = NodeBank::from_nodes(reference.clone());
        assert_eq!(format!("{:?}", bank.node(1)), format!("{:?}", reference[1]));
        for w in [150.0, 190.0] {
            let got = bank.set_power_limit(1, Watts(w));
            assert_eq!(got, reference[1].set_power_limit(Watts(w)));
            assert_eq!(
                got,
                Err(SimHwError::MsrReadOnlyBits {
                    address: address::PKG_POWER_LIMIT,
                    offending: LOCK,
                })
            );
            assert_eq!(
                bank.power_limit(1).value().to_bits(),
                reference[1].power_limit().value().to_bits()
            );
            let node = bank.node(1);
            for (got, want) in node.packages().iter().zip(reference[1].packages()) {
                let raw = |p: &crate::rapl::RaplPackage| p.msrs().read(address::PKG_POWER_LIMIT);
                assert_eq!(raw(got), raw(want));
                assert_eq!(got.limit(), want.limit());
            }
        }
        // The unlocked host next to it still takes writes.
        bank.set_power_limit(0, Watts(150.0)).unwrap();
    }
}

/// The settable range is kept once per bank, so a bank over two parts
/// would clamp one of them to the other's range: refuse to build it (the
/// class-id and plane-split cases are in `tests/shards.rs` at the
/// workspace root).
#[test]
#[should_panic(expected = "one part and one class")]
fn mixed_parts_do_not_share_a_bank() {
    let (_, mut nodes) = fleet(1);
    let mut spec = quartz_spec();
    spec.tdp_per_socket = spec.tdp_per_socket * 1.5;
    let other = PowerModel::new(spec).unwrap();
    nodes.push(Node::new(NodeId(1), &other, 1.0).unwrap());
    let _ = NodeBank::from_nodes(nodes);
}
