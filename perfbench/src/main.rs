//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints one line per metric (name, value, unit, samples), the run's
//! provenance, any check failures, and as its last line the JSON result:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` reports the
//! per-layer metrics and writes the spans under `.bench_build/perfbench-trace/`.

use pels_perfbench::{host, run_workload, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse().map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload: get("workload")?.clone(), seed: num("seed")?, seconds, trace })
}

fn write_spans(args: &Args, tracers: &[(&str, pels_perfbench::trace::Tracer)]) -> String {
    let dir = std::path::Path::new(".bench_build").join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let res = std::fs::create_dir_all(&dir).and_then(|_| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (thread, t) in tracers {
            t.write_jsonl(thread, &mut f)?;
        }
        f.flush()
    });
    match res {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run_workload(&args.workload, args.seed, args.seconds, args.trace);
    let (mut out, tracers) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("provenance {}", host::provenance(&args.workload, args.seed));
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let (value, samples) = match out.get(name) {
            Some(m) if m.unit == unit && m.value.is_finite() => (m.value, m.samples),
            Some(m) => {
                let bad = format!("{name} measured {} {} (declared unit {unit})", m.value, m.unit);
                out.check(false, bad);
                (0.0, 0)
            }
            // A layer this workload does not exercise.
            None if args.trace => (0.0, 0),
            None => {
                out.check(false, format!("{name} was not measured"));
                (0.0, 0)
            }
        };
        println!("metric {name:<36} {value:>16.6} {unit:<6} samples={samples}");
        fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    for note in &out.notes {
        println!("note {note}");
    }
    if args.trace {
        println!("{}", write_spans(&args, &tracers));
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
