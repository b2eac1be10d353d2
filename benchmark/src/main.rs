//! The repo benchmark: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` measures one workload in this process and prints every
//! metric by name, then one JSON object on the last line (the contract
//! is in `../BENCHMARK.json`, the reasoning in `README.md`).

use serde_json::Value;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use thermaware_benchmark::harness::{run, Report};
use thermaware_benchmark::{
    alloc, declared, dispatch_stream, fleet_replan, out_dir, room_plan, service_surge,
};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: thermaware-benchmark --workload \
    <room_plan|fleet_replan|dispatch_stream|service_surge> \
    [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 22.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn measure(args: &Args) -> Result<Report, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    Ok(match args.workload.as_str() {
        "room_plan" => run::<room_plan::RoomPlan>(&room_plan::FULL, seed, seconds, trace),
        "fleet_replan" => {
            run::<fleet_replan::FleetReplan>(&fleet_replan::FULL, seed, seconds, trace)
        }
        "dispatch_stream" => {
            run::<dispatch_stream::DispatchStream>(&dispatch_stream::FULL, seed, seconds, trace)
        }
        "service_surge" => {
            run::<service_surge::ServiceSurge>(&service_surge::FULL, seed, seconds, trace)
        }
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// One span per line, written when the run has ended.
fn write_trace(workload: &str, report: &Report) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &report.spans {
        // Span names are identifiers from the source; nothing to escape.
        writeln!(
            out,
            r#"{{"name":"{}","path":"{}","depth":{},"start_us":{},"dur_us":{},"thread":{}}}"#,
            s.name, s.path, s.depth, s.start_us, s.dur_us, s.thread
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, report) = match parse_args(&argv).and_then(|a| measure(&a).map(|r| (a, r))) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        match write_trace(&args.workload, &report) {
            Ok(path) => println!(
                "# {} spans written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write the trace: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    println!(
        "# {} seed {} — {} metrics, {} threads available",
        args.workload,
        args.seed,
        section,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("# {}", report.note);
    let mut metrics = Vec::new();
    for (name, unit) in declared(section) {
        // A layer the workload does not touch reads 0.
        let value = report.metric(&name).unwrap_or(0.0);
        println!("{name:<36} {value:>16.6} {unit}");
        let entry = Value::Object(vec![
            ("value".to_string(), Value::Number(value)),
            ("unit".to_string(), Value::String(unit)),
        ]);
        metrics.push((name, entry));
    }
    let correct = report.failed == 0
        && metrics.iter().all(|(_, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite)
        });
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Number(report.attempted as f64),
        ),
        ("failed".to_string(), Value::Number(report.failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a Value tree always prints")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
