//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p xpc-bench --bin figures -- all
//! cargo run -p xpc-bench --bin figures -- table3 fig6
//! cargo run -p xpc-bench --bin figures -- --json
//! cargo run -p xpc-bench --bin figures -- --threads 4 --json --no-simspeed all
//! ```
//!
//! `--json` additionally writes `BENCH_figures.json`: the full kernel-model
//! roster's per-system, per-size, per-phase cycle attributions, the JSON
//! sections of the experiments that ran (computed in the same run as
//! their tables), and the wall-clock `simspeed` section. `--no-simspeed`
//! drops that last section so the dump is byte-reproducible.
//! `--threads N` pins the sweep pool's worker count (overriding
//! `XPC_BENCH_THREADS` and the machine's parallelism); the rendered
//! output is byte-identical at any setting.

use xpc_bench::experiments;

fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

fn parse_threads(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => fail(&format!("--threads wants a positive integer, got '{v}'")),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let no_simspeed = args.iter().any(|a| a == "--no-simspeed");
    args.retain(|a| a != "--no-simspeed");

    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--threads=") {
            simos::par::set_threads(Some(parse_threads(v)));
            args.remove(i);
        } else if args[i] == "--threads" {
            match args.get(i + 1) {
                Some(v) => simos::par::set_threads(Some(parse_threads(v))),
                None => fail("--threads wants a value"),
            }
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }

    let registry = experiments::all();
    let keys: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        registry.iter().map(|(k, _)| *k).collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut sections = Vec::new();
    for key in keys {
        match registry.iter().find(|(k, _)| *k == key) {
            Some(&(key, run)) => {
                let out = run();
                println!("{}", out.report.render());
                // A key named twice runs twice but keeps one section.
                if let Some(section) = out.json {
                    if !sections.iter().any(|&(k, _)| k == key) {
                        sections.push((key, section));
                    }
                }
            }
            None => {
                let hint = experiments::suggest(key)
                    .map(|s| format!(" (did you mean '{s}'?)"))
                    .unwrap_or_default();
                eprintln!(
                    "unknown experiment '{key}'{hint}; available: {}",
                    registry
                        .iter()
                        .map(|(k, _)| *k)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(1);
            }
        }
    }

    if json {
        let mut names: Vec<&str> = sections.iter().map(|&(k, _)| k).collect();
        if !no_simspeed {
            names.push("simspeed");
        }
        let doc = experiments::document(sections, !no_simspeed);
        let path = "BENCH_figures.json";
        if let Err(e) = std::fs::write(path, format!("{}\n", doc.pretty())) {
            fail(&format!("failed to write {path}: {e}"));
        }
        eprintln!("wrote {path}: systems {}", names.join(" "));
    }
}
