//! The execution-time RM ⇄ runtime feedback loop the paper names as future
//! work, running end to end: the coordinator starts a mix through the
//! resource manager, each job executes under its own runtime controller,
//! and halfway through the run the RM re-characterizes the jobs from
//! *measured* power and re-allocates.
//!
//! ```text
//! cargo run --release --example online_feedback
//! ```

use powerstack::core::{Coordinator, CoordinatorError, CoordinatorMode, MixedAdaptive};
use powerstack::kernel::{Imbalance, KernelConfig, VectorWidth, WaitingFraction};
use powerstack::simhw::{quartz_spec, Cluster, VariationProfile, Watts};

fn main() -> Result<(), CoordinatorError> {
    let cluster = Cluster::builder(quartz_spec())
        .nodes(8)
        .variation(VariationProfile::quartz())
        .seed(7)
        .build()
        .expect("cluster builds");
    let coordinator = Coordinator::new(&cluster).with_jitter(0.005, 11);

    let mix = vec![
        (
            "polling-heavy".to_string(),
            KernelConfig::new(
                8.0,
                VectorWidth::Ymm,
                WaitingFraction::P75,
                Imbalance::ThreeX,
            ),
            4,
        ),
        (
            "compute-bound".to_string(),
            KernelConfig::balanced_ymm(16.0),
            4,
        ),
    ];
    let budget = Watts(8.0 * 200.0);

    for mode in [CoordinatorMode::Emulated, CoordinatorMode::Online] {
        let run = coordinator.try_run_mix(&mix, &MixedAdaptive, budget, 60, mode)?;
        println!("— {mode:?} mode —");
        for ((name, _, _), report) in mix.iter().zip(&run.reports) {
            println!(
                "  {name:<14} elapsed {:7.2} s   energy {:9.1} kJ   avg power {:7.1}",
                report.elapsed.value(),
                report.energy.kj(),
                report.avg_power(),
            );
        }
        println!(
            "  mix: mean elapsed {:.2} s, total energy {:.1} kJ\n",
            run.mean_elapsed(),
            run.total_energy() / 1e3,
        );
    }

    println!(
        "Online mode re-characterizes from measured powers mid-run, so the\n\
         allocation tightens to what the jobs actually draw — the protocol\n\
         §VIII proposes for the HPC PowerStack community."
    );
    Ok(())
}
