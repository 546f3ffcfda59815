//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all              # everything, paper scale
//! repro fig7 --fast      # one artifact at reduced scale
//! repro all --out results/   # also write per-artifact text + grid CSV
//! repro sweep --replicates 20 --metrics-out m.json
//! ```

use pmstack_experiments::cli::{self, Cli};
use pmstack_experiments::grid::{EvaluationGrid, GridParams};
use pmstack_experiments::{
    campaign, export, figures, hetero, megafleet, replicates, resilience, tables, Testbed,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("repro: {err}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    run(&cli);
}

fn run(cli: &Cli) {
    let artifact = cli.artifact.as_str();
    // The recorder stays a single disabled branch unless metrics were
    // asked for (--metrics-out) or the run prints the metrics summary
    // (grid --time and sweep, per DESIGN.md §13).
    let summarize = matches!(artifact, "sweep") || (artifact == "grid" && cli.timed);
    // Megafleet's replay-fraction report reads the shard counters, so the
    // recorder is always on for it.
    let record_for_megafleet = artifact == "megafleet";
    let record = cli.metrics_out.is_some() || summarize || record_for_megafleet;
    if record {
        pmstack_obs::enable();
    }
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    // The serving-plane artifacts are processes, not documents: `serve`
    // blocks until killed, `loadgen` talks to a daemon that is already
    // running. Both bail out before any batch machinery is built.
    if artifact == "serve" {
        let config = pmstackd::DaemonConfig {
            port: cli.port.unwrap_or(7070),
            hosts: cli.hosts.unwrap_or(100_000),
            ..pmstackd::DaemonConfig::default()
        };
        eprintln!(
            "[repro] serve: {} simulated hosts, {} workers, tick {} ms…",
            config.hosts, config.workers, config.tick_ms
        );
        let daemon = match pmstackd::Daemon::spawn(config) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("repro: serve failed to bind: {e}");
                std::process::exit(1);
            }
        };
        println!("pmstackd listening on http://{}", daemon.addr());
        println!(
            "  GET /metrics[?format=prometheus|json|summary]  GET /stream?frames=N&interval_ms=M"
        );
        println!("  POST /submit {{\"app\",\"nodes\",\"policy\"}}  GET /healthz");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    if artifact == "loadgen" {
        let lp = pmstackd::LoadgenParams {
            addr: cli
                .addr
                .clone()
                .unwrap_or_else(|| "127.0.0.1:7070".to_string()),
            requests: cli.requests.unwrap_or(5000),
            concurrency: cli.concurrency.unwrap_or(4),
            body: pmstackd::LoadgenParams::default_body(),
        };
        eprintln!(
            "[repro] loadgen: {} requests x {} connections against {}…",
            lp.requests, lp.concurrency, lp.addr
        );
        match pmstackd::run_loadgen(&lp) {
            Ok(report) => {
                print!("{}", pmstackd::loadgen::render(&report));
                if let Some(dir) = &cli.out_dir {
                    std::fs::write(
                        dir.join("BENCH_serve.json"),
                        pmstackd::loadgen::to_bench_json(&report),
                    )
                    .expect("write BENCH_serve.json");
                    eprintln!("[repro] wrote {}", dir.join("BENCH_serve.json").display());
                }
            }
            Err(e) => {
                eprintln!(
                    "repro: loadgen failed (is the daemon up at {}?): {e}",
                    lp.addr
                );
                std::process::exit(1);
            }
        }
        return;
    }

    let (screen_nodes, params) = if cli.fast {
        (400, GridParams::fast())
    } else {
        (2000, GridParams::default())
    };

    // Cheap artifacts need no testbed; build it lazily. Screen seed 6: its
    // largest homogeneous cluster holds the 900 nodes the full-scale grid
    // places (seed 42's tops out at 888 and cannot host the default mixes).
    let needs_testbed = matches!(
        artifact,
        "all" | "table3" | "fig6" | "fig7" | "fig8" | "grid" | "sweep"
    );
    let testbed = needs_testbed.then(|| {
        eprintln!("[repro] screening {screen_nodes} nodes for hardware variation…");
        Testbed::new(screen_nodes, 6)
    });
    let needs_grid = matches!(artifact, "all" | "fig7" | "fig8" | "grid");
    let mut grid_timing = None;
    let grid = needs_grid.then(|| {
        eprintln!(
            "[repro] evaluating 5 policies x 6 mixes x 3 budgets ({} nodes/job, {} iterations)…",
            params.nodes_per_job, params.iterations
        );
        let tb = testbed.as_ref().expect("grid implies testbed");
        if cli.timed {
            let (g, t) = EvaluationGrid::run_timed(tb, params);
            grid_timing = Some(t);
            g
        } else {
            EvaluationGrid::run(tb, params)
        }
    });
    if let Some(t) = &grid_timing {
        eprintln!(
            "[repro] grid timing: prep {:.3}s + eval {:.3}s + assemble {:.3}s = {:.3}s total ({} worker{})",
            t.prep_secs,
            t.eval_secs,
            t.assemble_secs,
            t.total_secs,
            t.workers,
            if t.workers == 1 { "" } else { "s" },
        );
    }

    let emit = |name: &str, body: String| {
        if artifact == "all" || artifact == name {
            println!("{body}");
            println!("{}", "=".repeat(72));
            if let Some(dir) = &cli.out_dir {
                std::fs::write(dir.join(format!("{name}.txt")), &body)
                    .expect("write artifact file");
            }
        }
    };

    emit("table1", tables::table1());
    emit("table2", tables::table2());
    if let Some(tb) = &testbed {
        emit("table3", tables::table3(tb, params.nodes_per_job));
    }
    emit("fig1", figures::fig1(42));
    emit("fig2", figures::fig2());
    emit("fig3", figures::fig3());
    emit("fig4", figures::fig4());
    emit("fig5", figures::fig5());
    if let Some(tb) = &testbed {
        emit("fig6", figures::fig6(tb));
        if artifact == "all" || artifact == "sweep" {
            if let Some(n) = cli.replicates {
                let rp = if cli.fast {
                    replicates::ReplicateParams::fast(n)
                } else {
                    replicates::ReplicateParams::default_scale(n)
                };
                eprintln!(
                    "[repro] replicate sweep: 5 policies x ({n} jittered + 1 clean) full-stack \
                     runs (9 jobs x {} nodes, {} iterations)…",
                    rp.nodes_per_job, rp.iterations
                );
                let sweep = replicates::run_sweep(pmstack_experiments::MixKind::WastefulPower, rp);
                eprintln!(
                    "[repro] sweep timing: {:.3}s wall for {} node iterations ({:.2e} node-iters/s)",
                    sweep.wall_secs,
                    sweep.node_iterations,
                    sweep.throughput(),
                );
                emit("sweep", replicates::render(&sweep));
                if cli.timed {
                    if let Some(dir) = &cli.out_dir {
                        let json = format!(
                            "{{\n  \"benchmark\": \"replicate_sweep\",\n  \"mix\": \"{}\",\n  \
                             \"replicates\": {},\n  \"nodes_per_job\": {},\n  \
                             \"iterations\": {},\n  \"node_iterations\": {},\n  \
                             \"wall_secs\": {:.6},\n  \"node_iters_per_sec\": {:.1}\n}}\n",
                            sweep.mix,
                            rp.replicates,
                            rp.nodes_per_job,
                            rp.iterations,
                            sweep.node_iterations,
                            sweep.wall_secs,
                            sweep.throughput(),
                        );
                        std::fs::write(dir.join("BENCH_sweep.json"), json)
                            .expect("write BENCH_sweep.json");
                        eprintln!("[repro] wrote {}", dir.join("BENCH_sweep.json").display());
                    }
                }
            } else {
                let (npj, steps) = if cli.fast { (6, 10) } else { (25, 20) };
                emit(
                    "sweep",
                    figures::fig_sweep(tb, pmstack_experiments::MixKind::WastefulPower, npj, steps),
                );
            }
        }
    }
    if artifact == "all" || artifact == "faults" {
        let rp = if cli.fast {
            resilience::ResilienceParams::fast()
        } else {
            resilience::ResilienceParams::default_scale()
        };
        eprintln!(
            "[repro] resilience: 5 policies x 2 runs (9 jobs x {} nodes, {} iterations)…",
            rp.nodes_per_job, rp.iterations
        );
        emit("faults", resilience::render(&resilience::run_study(rp)));
    }
    // Megafleet is deliberately excluded from `all`: at its default 100k
    // hosts it is a scale benchmark, not a paper artifact.
    if artifact == "megafleet" {
        let hosts = cli.hosts.unwrap_or(100_000);
        let mp = if cli.fast {
            megafleet::MegafleetParams::fast(hosts)
        } else {
            megafleet::MegafleetParams::default_scale(hosts)
        };
        eprintln!(
            "[repro] megafleet: {hosts} hosts, {}+{}+{}+{} iterations (resolve/balance/steady/churn)…",
            mp.resolve_iters, mp.balance_iters, mp.steady_iters, mp.churn_iters
        );
        let report = megafleet::run_megafleet(&mp);
        emit("megafleet", megafleet::render(&report));
        if cli.timed {
            for p in &report.phases {
                eprintln!(
                    "[repro] megafleet {}: {:.3}s wall, {:.2} ns/host",
                    p.name, p.wall_secs, p.ns_per_host
                );
            }
            if let Some(bytes) = report.resident_bytes_per_host {
                eprintln!("[repro] megafleet resident: {bytes:.0} bytes/host");
            }
            if let Some(dir) = &cli.out_dir {
                std::fs::write(
                    dir.join("BENCH_megafleet.json"),
                    megafleet::to_bench_json(&report),
                )
                .expect("write BENCH_megafleet.json");
                eprintln!(
                    "[repro] wrote {}",
                    dir.join("BENCH_megafleet.json").display()
                );
            }
        }
    }
    if artifact == "all" || artifact == "hetero" {
        let hp = if cli.fast {
            hetero::HeteroParams::fast()
        } else {
            hetero::HeteroParams::default_scale()
        };
        eprintln!(
            "[repro] hetero: 5 policies x {{homogeneous, 3-class}} fleets \
             ({} hosts/job, {} ticks)…",
            hp.hosts_per_job, hp.ticks
        );
        emit("hetero", hetero::render(&hetero::run_hetero(&hp)));
    }
    if artifact == "all" || artifact == "facility" {
        let chaos = cli.chaos.unwrap_or(2);
        let mut cp = if cli.fast {
            campaign::CampaignParams::fast(chaos)
        } else {
            campaign::CampaignParams::default_scale(chaos)
        };
        if let Some(days) = cli.days {
            cp.days = days;
        }
        eprintln!(
            "[repro] facility campaign: 5 policies x clean+chaos ({} nodes, {} days, chaos {})…",
            cp.nodes, cp.days, cp.chaos
        );
        emit("facility", campaign::render(&campaign::run_campaign(&cp)));
    }
    if let Some(g) = &grid {
        emit("fig7", figures::fig7(g));
        emit("fig8", figures::fig8(g));
        if artifact == "grid" {
            println!("{}", export::grid_to_csv(g));
        }
        if let Some(dir) = &cli.out_dir {
            std::fs::write(dir.join("grid.csv"), export::grid_to_csv(g)).expect("write grid CSV");
            eprintln!("[repro] wrote {}", dir.join("grid.csv").display());
            if let Some(t) = &grid_timing {
                let json = format!(
                    "{{\n  \"benchmark\": \"evaluation_grid\",\n  \"cells\": {},\n  \
                     \"nodes_per_job\": {},\n  \"iterations\": {},\n  \"workers\": {},\n  \
                     \"prep_secs\": {:.6},\n  \"eval_secs\": {:.6},\n  \
                     \"assemble_secs\": {:.6},\n  \"total_secs\": {:.6}\n}}\n",
                    g.cells.len(),
                    params.nodes_per_job,
                    params.iterations,
                    t.workers,
                    t.prep_secs,
                    t.eval_secs,
                    t.assemble_secs,
                    t.total_secs,
                );
                std::fs::write(dir.join("BENCH_grid.json"), json).expect("write BENCH_grid.json");
                eprintln!("[repro] wrote {}", dir.join("BENCH_grid.json").display());
            }
        }
    }

    if record {
        let snap = pmstack_obs::snapshot();
        if summarize {
            println!("{}", snap.summary());
        }
        if let Some(path) = &cli.metrics_out {
            std::fs::write(path, snap.to_json()).expect("write --metrics-out JSON");
            let prom = path.with_extension(match path.extension() {
                Some(ext) => format!("{}.prom", ext.to_string_lossy()),
                None => "prom".to_string(),
            });
            std::fs::write(&prom, snap.to_prometheus()).expect("write --metrics-out Prometheus");
            eprintln!("[repro] wrote {} and {}", path.display(), prom.display());
        }
    }
}
