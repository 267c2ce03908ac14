//! Regenerate the tables and figures of the TDB paper's evaluation section on
//! synthetic dataset proxies.
//!
//! ```text
//! cargo run --release -p tdb-bench --bin experiments -- all --scale 0.05
//! cargo run --release -p tdb-bench --bin experiments -- table3
//! cargo run --release -p tdb-bench --bin experiments -- figure6 --scale 0.01 --seed 7
//! ```
//!
//! Subcommands: `table2`, `table3`, `table4`, `figure6`, `figure7`, `figure8`,
//! `figure9`, `figure10`, `large`, `weighted`, `sharding`, `watch`, `all`.
//! Options: `--scale <f64>`, `--seed <u64>`, `--slow-limit <edges>`,
//! `--verify`, `--k <list>` (comma separated, default `3,4,5,6,7`),
//! `--budget <seconds>` (wall-clock budget per cell; overruns print as `-`).
//!
//! The end-to-end benchmark of solving, stream refresh and serving, with its
//! audits, is the separate `benchmark/` package (`BENCHMARK.json`).
//!
//! The `weighted` subcommand runs the `Objective::MinWeight` scenario: a
//! skewed VIP cost model vs the cardinality baseline, the all-1 bit-exactness
//! contract, and a `Budget::MaxCost` best-effort solve with its residual
//! audit — it exits nonzero if any contract fails:
//!
//! ```text
//! cargo run --release -p tdb-bench --bin experiments -- weighted \
//!     --weighted-vertices 20000 --weighted-edges 80000
//! ```
//!
//! The `watch` subcommand is a live console view over a running server: it
//! polls `METRICS` / `HEALTH?` and renders rolling deltas (reads/s,
//! updates/s, interval p99 from histogram bucket deltas, queue depth,
//! publish age, watchdog status). Point it at an address, or give no address
//! to watch a self-contained in-process demo server under synthetic load:
//!
//! ```text
//! cargo run --release -p tdb-bench --bin experiments -- watch \
//!     --watch-addr 127.0.0.1:7411 --watch-iters 30 --watch-interval-ms 1000
//! ```
//!
//! Any subcommand accepts `--trace-out <file>`: the `tdb-obs` tracer *and
//! flight recorder* are enabled for the run and a Chrome trace-event file
//! (spans as complete events, recorder events as instants; loadable in
//! `chrome://tracing` or Perfetto) is written on exit.
//!
//! The `sharding` subcommand (also reachable as plain `--sharding`) builds a
//! seeded multi-SCC graph and compares the sequential whole-graph solve with
//! the SCC-partitioned pipeline (`CoverRequest::sharding`):
//!
//! ```text
//! cargo run --release -p tdb-bench --bin experiments -- --sharding \
//!     --shard-components 8 --shard-vertices 12500 --shard-edges 50000 \
//!     --shard-threads 4
//! ```

use std::process::ExitCode;

use tdb_bench::sharding::{format_sharding_report, run_sharding, ShardingConfig};
use tdb_bench::watch::{run_watch, WatchConfig};
use tdb_bench::weighted::{format_weighted_report, run_weighted, WeightedConfig};
use tdb_bench::{
    figure10_rows, figure67_rows, figure89_rows, format_rows, proxy, run_cell, table2_rows,
    table3_rows, table4_rows, ExperimentConfig,
};
use tdb_core::{Algorithm, HopConstraint};
use tdb_datasets::{Dataset, SynthesisConfig};
use tdb_graph::Graph;

/// The subcommands, in the order the usage line lists them.
const COMMANDS: &[&str] = &[
    "table2", "table3", "table4", "figure6", "figure7", "figure8", "figure9", "figure10", "large",
    "weighted", "sharding", "watch", "all",
];

struct Options {
    command: String,
    config: ExperimentConfig,
    sharding: ShardingConfig,
    weighted: WeightedConfig,
    trace_out: Option<String>,
    watch_addr: Option<String>,
    watch_iters: usize,
    watch_interval_ms: u64,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut slow_limit = 60_000usize;
    let mut verify = false;
    let mut ks = vec![3usize, 4, 5, 6, 7];
    let mut ks_explicit = false;
    let mut budget = None;
    // `--smoke` swaps the weighted baseline for the CI-sized workload; it is
    // applied before the flag loop so explicit --weighted-* flags still
    // override it.
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut sharding = ShardingConfig::acceptance();
    let mut sharding_flag = false;
    let mut weighted = if smoke {
        WeightedConfig::smoke()
    } else {
        WeightedConfig::acceptance()
    };
    let mut trace_out = None;
    let mut watch_addr = None;
    let mut watch_iters = 10usize;
    let mut watch_interval_ms = 500u64;

    let mut it = args.into_iter().peekable();
    let mut command_explicit = false;
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            command = it.next().unwrap();
            command_explicit = true;
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--scale" => {
                scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--slow-limit" => {
                slow_limit = value("--slow-limit")?
                    .parse()
                    .map_err(|e| format!("--slow-limit: {e}"))?
            }
            "--verify" => verify = true,
            "--budget" => {
                let secs: f64 = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
                budget = Some(std::time::Duration::try_from_secs_f64(secs).map_err(|_| {
                    format!("--budget: expected a non-negative number of seconds, got {secs}")
                })?);
            }
            "--k" => {
                ks = value("--k")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("--k: {e}"))?;
                ks_explicit = true;
            }
            "--sharding" => sharding_flag = true,
            "--shard-components" => {
                let c: usize = value("--shard-components")?
                    .parse()
                    .map_err(|e| format!("--shard-components: {e}"))?;
                if c == 0 {
                    return Err("--shard-components: need at least one component".into());
                }
                sharding.components = c;
            }
            "--shard-vertices" => {
                let v: usize = value("--shard-vertices")?
                    .parse()
                    .map_err(|e| format!("--shard-vertices: {e}"))?;
                if v < 2 {
                    return Err("--shard-vertices: a non-trivial SCC needs >= 2 vertices".into());
                }
                sharding.vertices_per_component = v;
            }
            "--shard-edges" => {
                sharding.edges_per_component = value("--shard-edges")?
                    .parse()
                    .map_err(|e| format!("--shard-edges: {e}"))?;
            }
            "--shard-threads" => {
                let t: usize = value("--shard-threads")?
                    .parse()
                    .map_err(|e| format!("--shard-threads: {e}"))?;
                if t == 0 {
                    return Err("--shard-threads: need at least one thread".into());
                }
                sharding.threads = t;
            }
            "--shard-algo" => {
                let raw = value("--shard-algo")?;
                sharding.algorithm = raw
                    .parse::<Algorithm>()
                    .map_err(|e| format!("--shard-algo: {e}"))?;
            }
            "--smoke" => {} // handled by the pre-scan above
            "--weighted-vertices" => {
                let v: usize = value("--weighted-vertices")?
                    .parse()
                    .map_err(|e| format!("--weighted-vertices: {e}"))?;
                if v < 2 {
                    return Err("--weighted-vertices: need at least two vertices".into());
                }
                weighted.vertices = v;
            }
            "--weighted-edges" => {
                weighted.edges = value("--weighted-edges")?
                    .parse()
                    .map_err(|e| format!("--weighted-edges: {e}"))?;
            }
            "--weighted-vip-degree" => {
                weighted.vip_degree = value("--weighted-vip-degree")?
                    .parse()
                    .map_err(|e| format!("--weighted-vip-degree: {e}"))?;
            }
            "--weighted-vip-cost" => {
                let c: u64 = value("--weighted-vip-cost")?
                    .parse()
                    .map_err(|e| format!("--weighted-vip-cost: {e}"))?;
                if c == 0 {
                    return Err("--weighted-vip-cost: costs are clamped to >= 1".into());
                }
                weighted.vip_cost = c;
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--watch-addr" => watch_addr = Some(value("--watch-addr")?),
            "--watch-iters" => {
                let n: usize = value("--watch-iters")?
                    .parse()
                    .map_err(|e| format!("--watch-iters: {e}"))?;
                if n == 0 {
                    return Err("--watch-iters: need at least one frame".into());
                }
                watch_iters = n;
            }
            "--watch-interval-ms" => {
                let ms: u64 = value("--watch-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--watch-interval-ms: {e}"))?;
                if ms == 0 {
                    return Err("--watch-interval-ms: interval must be positive".into());
                }
                watch_interval_ms = ms;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    // The sharding and weighted scenarios share the global --seed / --k /
    // --verify flags.
    sharding.seed = seed;
    sharding.verify = verify;
    weighted.seed = seed;
    if ks_explicit {
        if let Some(&k) = ks.first() {
            sharding.k = k;
            weighted.k = k;
        }
    }
    // `--sharding` selects the scenario without requiring a positional
    // command; a conflicting explicit subcommand is an error, not silently
    // overridden.
    if sharding_flag {
        if command_explicit && command != "sharding" {
            return Err(format!(
                "--sharding conflicts with the {command:?} subcommand; drop one of the two"
            ));
        }
        command = "sharding".to_string();
    }
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command {command:?}"));
    }

    Ok(Options {
        command,
        config: ExperimentConfig {
            synthesis: SynthesisConfig {
                scale,
                seed,
                ..SynthesisConfig::harness_default()
            },
            ks,
            slow_algorithm_edge_limit: slow_limit,
            verify,
            time_budget: budget,
        },
        sharding,
        weighted,
        trace_out,
        watch_addr,
        watch_iters,
        watch_interval_ms,
    })
}

/// `watch` with no `--watch-addr`: start an in-process smoke server, drive
/// it with one synthetic reader/writer client, and watch that. Lets the
/// subcommand demo the rolling view without a separately running deployment.
fn watch_demo_server(
    watch: &WatchConfig,
) -> Result<Vec<tdb_bench::watch::WatchFrame>, tdb_serve::ClientError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tdb_core::prelude::*;
    use tdb_dynamic::SolveDynamic;
    use tdb_graph::gen::erdos_renyi_gnm;
    use tdb_graph::VertexId;
    use tdb_serve::{CoverServer, ServeClient, ServeConfig};

    let n = 2_000u64;
    let graph = erdos_renyi_gnm(n as usize, 8_000, 42);
    let dynamic = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(graph, &HopConstraint::new(4))
        .expect("unbudgeted solve cannot fail");
    let server = CoverServer::start(dynamic, ServeConfig::default())
        .expect("binding a loopback listener cannot fail");
    let addr = server.local_addr();
    print_block(&format!("Watch: in-process demo server on {addr}"), &[]);

    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("demo traffic connect");
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let _ = client.cover((i % n) as VertexId);
                if i % 16 == 0 {
                    let u = (i % n) as VertexId;
                    let v = ((i * 7 + 3) % n) as VertexId;
                    if u != v {
                        let _ = client.insert(u, v);
                    }
                }
                i += 1;
            }
        })
    };

    let result = run_watch(
        &WatchConfig {
            addr: addr.to_string(),
            iterations: watch.iterations,
            interval: watch.interval,
        },
        |line| println!("{line}"),
    );

    stop.store(true, Ordering::Release);
    traffic.join().expect("demo traffic thread");
    let mut client = ServeClient::connect(addr)?;
    client.shutdown()?;
    server.join();
    result
}

fn print_block(title: &str, lines: &[String]) {
    println!("\n=== {title} ===");
    for line in lines {
        println!("{line}");
    }
}

fn figure67(config: &ExperimentConfig, runtime: bool) {
    let rows = figure67_rows(config, &Dataset::small_and_medium());
    let title = if runtime {
        "Figure 6: runtime (s) vs k — DARC-DV / BUR+ / TDB++"
    } else {
        "Figure 7: cover size vs k — DARC-DV / BUR+ / TDB++"
    };
    print_block(title, &format_rows(&rows));
}

fn large_scale(config: &ExperimentConfig) {
    // The lower block of Table III: the four largest proxies, TDB++ only.
    let constraint = HopConstraint::new(5);
    let mut lines = Vec::new();
    for dataset in Dataset::large_scale() {
        let g = proxy(dataset, config);
        if let Some(r) = run_cell(&g, dataset, Algorithm::TdbPlusPlus, &constraint, config) {
            lines.push(format!(
                "{:<5} |V|={:<10} |E|={:<12} TDB++ size={:<10} time={:.3}s",
                r.dataset,
                g.num_vertices(),
                g.num_edges(),
                r.cover_size,
                r.seconds()
            ));
        }
    }
    print_block("Table III (large-scale block): TDB++ only, k = 5", &lines);
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: experiments [{}] [--scale F] [--seed N] [--slow-limit E] [--k 3,4,5] [--verify] [--budget SECS] [--smoke] [--trace-out PATH]", COMMANDS.join("|"));
            eprintln!("       weighted flags: [--weighted-vertices N] [--weighted-edges M] [--weighted-vip-degree D] [--weighted-vip-cost C]");
            eprintln!("       watch flags: [--watch-addr HOST:PORT] [--watch-iters N] [--watch-interval-ms MS] (no addr: in-process demo server)");
            eprintln!("       sharding flags: [--sharding] [--shard-components C] [--shard-vertices N] [--shard-edges M] [--shard-threads T] [--shard-algo NAME]");
            return ExitCode::FAILURE;
        }
    };
    if options.trace_out.is_some() {
        tdb_obs::trace::set_enabled(true);
        tdb_obs::event::set_enabled(true);
    }
    let code = run(&options);
    if let Some(path) = &options.trace_out {
        tdb_obs::trace::set_enabled(false);
        tdb_obs::event::set_enabled(false);
        let spans = tdb_obs::trace::drain();
        let events = tdb_obs::event::drain();
        let dropped = tdb_obs::trace::dropped() + tdb_obs::event::dropped();
        let json = tdb_obs::trace::chrome_trace_json_with_events(&spans, &events);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "\ntrace written to {path} ({} spans, {} instant events{}) — load it in chrome://tracing or https://ui.perfetto.dev",
            spans.len(),
            events.len(),
            if dropped > 0 {
                format!(", {dropped} dropped by ring overflow")
            } else {
                String::new()
            }
        );
    }
    code
}

fn run(options: &Options) -> ExitCode {
    let cfg = &options.config;
    println!(
        "# TDB experiment harness — scale {}, seed {}, ks {:?}, slow-limit {} edges, verify {}, budget {}",
        cfg.synthesis.scale,
        cfg.synthesis.seed,
        cfg.ks,
        cfg.slow_algorithm_edge_limit,
        cfg.verify,
        cfg.time_budget
            .map(|b| format!("{:.3}s", b.as_secs_f64()))
            .unwrap_or_else(|| "none".to_string()),
    );

    match options.command.as_str() {
        "table2" => print_block(
            "Table II: dataset statistics (paper vs proxy)",
            &table2_rows(cfg),
        ),
        "table3" => print_block(
            "Table III: cover size and runtime, k = 5",
            &table3_rows(cfg),
        ),
        "table4" => print_block(
            "Table IV: cover size with / without 2-cycles, k = 5",
            &table4_rows(cfg),
        ),
        "figure6" => figure67(cfg, true),
        "figure7" => figure67(cfg, false),
        "figure8" | "figure9" => print_block(
            "Figures 8–9: BUR vs BUR+ (runtime and cover size) on WKV / WGO",
            &format_rows(&figure89_rows(cfg)),
        ),
        "figure10" => print_block(
            "Figure 10: TDB vs TDB+ vs TDB++ runtime on WKV / WGO",
            &format_rows(&figure10_rows(cfg)),
        ),
        "large" => large_scale(cfg),
        "sharding" => {
            let s = &options.sharding;
            let mut lines = vec![format!(
                "workload  {} components x {} vertices, ~{} edges each, k = {}, algorithm {}",
                s.components,
                s.vertices_per_component,
                s.edges_per_component,
                s.k,
                s.algorithm.name(),
            )];
            let report = run_sharding(s);
            lines.extend(format_sharding_report(&report));
            print_block("Sharded solving: SCC-partitioned vs whole-graph", &lines);
            if !report.covers_identical {
                eprintln!("error: sharded and unsharded covers differ");
                return ExitCode::FAILURE;
            }
            if report.verified == Some(false) {
                eprintln!("error: the sharded cover failed the validity audit");
                return ExitCode::FAILURE;
            }
        }
        "weighted" => {
            let w = &options.weighted;
            let mut lines = vec![format!(
                "workload  |V|={} |E|~{} k={} seed {}  VIP: degree >= {} costs {}x",
                w.vertices, w.edges, w.k, w.seed, w.vip_degree, w.vip_cost
            )];
            let report = run_weighted(w);
            lines.extend(format_weighted_report(&report));
            print_block(
                "Weighted objective: MinWeight vs MinCardinality, budgeted best-effort",
                &lines,
            );
            if !report.healthy() {
                eprintln!("error: a weighted-objective contract failed (see report above)");
                return ExitCode::FAILURE;
            }
        }
        "watch" => {
            let watch = WatchConfig {
                addr: options.watch_addr.clone().unwrap_or_default(),
                iterations: options.watch_iters,
                interval: std::time::Duration::from_millis(options.watch_interval_ms),
            };
            let outcome = match &options.watch_addr {
                Some(addr) => {
                    print_block(&format!("Watch: {addr}"), &[]);
                    run_watch(&watch, |line| println!("{line}"))
                }
                None => watch_demo_server(&watch),
            };
            if let Err(e) = outcome {
                eprintln!("error: watch failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            print_block(
                "Table II: dataset statistics (paper vs proxy)",
                &table2_rows(cfg),
            );
            print_block(
                "Table III: cover size and runtime, k = 5",
                &table3_rows(cfg),
            );
            print_block(
                "Table IV: cover size with / without 2-cycles, k = 5",
                &table4_rows(cfg),
            );
            figure67(cfg, true);
            print_block(
                "Figures 8–9: BUR vs BUR+ (runtime and cover size) on WKV / WGO",
                &format_rows(&figure89_rows(cfg)),
            );
            print_block(
                "Figure 10: TDB vs TDB+ vs TDB++ runtime on WKV / WGO",
                &format_rows(&figure10_rows(cfg)),
            );
            large_scale(cfg);
        }
        other => unreachable!("parse_args accepts only known commands, not {other:?}"),
    }
    ExitCode::SUCCESS
}
