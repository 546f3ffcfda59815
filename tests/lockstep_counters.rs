//! The lockstep harness (`tests/lockstep/main.rs` states its contract) with
//! the counters and journal in its observables: after every control op, the
//! `simhw.bank.control_writes`, `simhw.rapl.clamped` and
//! `simhw.bank.shard.invalidated` counts and the `RaplClamp` journal a
//! system recorded must be the ones the oracle's `Node` writes and the
//! system's segment model predict, with the recorder on; and a batched
//! write over two segments that no host can fail fans out on the pool.
//! One property in its own binary, so no other test moves the process-wide
//! counters and journal it compares.

#[path = "lockstep/harness.rs"]
mod harness;

use harness::*;
use pmstack_simhw::NodeBank;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every case settles its fleet first, so writes find settled segments
    /// to invalidate, then takes a few faults, so writes meet dead, stuck
    /// and glitched hosts.
    #[test]
    fn banks_count_and_journal_like_the_per_node_oracle(
        kind in 0usize..PARTS,
        eps in prop::collection::vec(0.85f64..1.15, 2..48),
        shape in (1usize..9, 0u8..2, 0u8..2),
        faults in prop::collection::vec((0usize..64, fault_kind()), 0..4),
        ops in prop::collection::vec(op(true, 1..100), 1..12),
    ) {
        let (seg, record, scoped) = (shape.0, shape.1 == 1, shape.2 == 1);
        match record {
            true => pmstack_obs::enable(),
            false => pmstack_obs::disable(),
        }
        let config = phase(8.0, true);
        let oracle = Oracle::new(kind, &eps, config, 0.0, 0);
        let mut sharded = NodeBank::from_nodes(oracle.nodes.clone());
        sharded.set_segment_hosts(seg);
        let flat = NodeBank::from_nodes(oracle.nodes.clone());
        let suts = vec![
            BankSut::new(flat, kind, config, (false, scoped)).paired(),
            BankSut::new(sharded, kind, config, (true, scoped)).paired(),
        ];
        let mut run = Run { oracle, suts, platform: false, traced: true, scoped };
        run.apply(Op::Idle(100))?;
        let faults = faults.into_iter().map(|(h, kind)| Op::Fault(h, kind, false));
        run.run(faults.chain(ops).collect())?;
    }
}
