//! `--suite`: every workload in a fresh child process, untraced then
//! traced, collected into `results.json`. `--selfcheck`: the suite
//! twice, compared metric by metric against the bounds in
//! `BENCHMARK.json`, which is itself checked against the catalogue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use trinity::math::kernel;

use crate::harness::{is_exact_count, loadavg1, nproc, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::Args;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Where and on what the numbers were taken. Two result files are only
/// comparable when `nproc` agrees.
fn meta_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    format!(
        "{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"backend\":\"{}\",\"loadavg1\":{}}}",
        nproc(),
        json::escape(cpu),
        json::escape(&command_line("rustc", &["-V"])),
        json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        kernel::active().name(),
        loadavg1(),
    )
}

/// Runs one workload in a child process and returns its result line.
/// The child's report goes to our standard output as it comes.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metrics_of(result: &Value) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn object(map: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Runs the suite once; returns the results document and whether
/// every run was correct.
fn run_suite(args: &Args) -> Result<(String, bool), String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut doc = format!(
        "{{\"meta\":{},\"seed\":{},\"seconds\":{},\"workloads\":{{",
        meta_json(),
        args.seed,
        args.seconds
    );
    let mut all_correct = true;
    for (i, workload) in names.iter().enumerate() {
        let untraced = child(args, workload, false)?;
        let traced = child(args, workload, true)?;
        let flag = |v: &Value, key| v.get(key).and_then(Value::as_bool).unwrap_or(false);
        let num = |v: &Value, key| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let correct = flag(&untraced, "correct") && flag(&traced, "correct");
        all_correct &= correct;
        let _ = write!(
            doc,
            "{}\"{workload}\":{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}",
            if i > 0 { "," } else { "" },
            num(&untraced, "attempted") + num(&traced, "attempted"),
            num(&untraced, "failed") + num(&traced, "failed"),
            object(&metrics_of(&untraced)),
            object(&metrics_of(&traced)),
        );
    }
    doc.push_str("}}\n");
    Ok((doc, all_correct))
}

fn write_results(args: &Args, file: &str, doc: &str) {
    let Some(dir) = &args.out else { return };
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

pub fn run(args: &Args) -> ExitCode {
    match run_suite(args) {
        Ok((doc, correct)) => {
            write_results(args, "results.json", &doc);
            if correct {
                ExitCode::SUCCESS
            } else {
                println!("FAIL: at least one run was not correct");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("trinity-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `(name, better, bound)` rows of `BENCHMARK.json`'s end-to-end
/// list, after checking the file against the catalogue.
fn read_bounds(path: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let catalogue = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if names("end_to_end") != catalogue(&END_TO_END) {
        return Err("BENCHMARK.json end_to_end differs from the catalogue".into());
    }
    if names("per_layer") != catalogue(&PER_LAYER) {
        return Err("BENCHMARK.json per_layer differs from the catalogue".into());
    }
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    if workloads != WORKLOADS {
        return Err("BENCHMARK.json workloads differ from the catalogue".into());
    }
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            if !(0.0..=0.25).contains(&bound) {
                return Err(format!("{name}: bound {bound} outside [0, 0.25]"));
            }
            Ok((name, higher, bound))
        })
        .collect()
}

/// Compares two results documents: every end-to-end metric of `b` may
/// be worse than `a`'s by at most its bound, and every count must be
/// equal. Refuses to compare across different `nproc`.
fn compare(a: &Value, b: &Value, bounds: &[(String, bool, f64)]) -> Result<bool, String> {
    let nproc = |v: &Value| {
        v.get("meta")
            .and_then(|m| m.get("nproc"))
            .and_then(Value::as_f64)
    };
    if nproc(a) != nproc(b) {
        return Err(format!(
            "refusing to compare results taken on {:?} and {:?} CPUs",
            nproc(a),
            nproc(b)
        ));
    }
    let section = |v: &Value, w: &str, s: &str| -> BTreeMap<String, f64> {
        v.get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|w| w.get(s))
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for workload in WORKLOADS {
        let (ea, eb) = (
            section(a, workload, "end_to_end"),
            section(b, workload, "end_to_end"),
        );
        for (name, higher, bound) in bounds {
            let (Some(&x), Some(&y)) = (ea.get(name), eb.get(name)) else {
                continue;
            };
            let worse = if *higher { (x - y) / x } else { (y - x) / x };
            let within = worse <= *bound;
            ok &= within;
            println!(
                "{workload:<14} {name:<14} {x:>12.4} {y:>12.4} {worse:>+9.4} {bound:>7.2}{}",
                if within { "" } else { "  OUTSIDE" }
            );
        }
        let (la, lb) = (
            section(a, workload, "per_layer"),
            section(b, workload, "per_layer"),
        );
        for (name, x) in la.iter().filter(|(name, _)| is_exact_count(name)) {
            if lb.get(name) != Some(x) {
                ok = false;
                println!("{workload:<14} {name}: count {x} became {:?}", lb.get(name));
            }
        }
    }
    Ok(ok)
}

pub fn selfcheck(args: &Args) -> ExitCode {
    let check = || -> Result<bool, String> {
        let bounds_path = args
            .bounds
            .as_ref()
            .ok_or("--selfcheck needs --bounds <BENCHMARK.json>")?;
        let bounds = read_bounds(bounds_path)?;
        let (first, correct_a) = run_suite(args)?;
        write_results(args, "results.json", &first);
        let (second, correct_b) = run_suite(args)?;
        write_results(args, "results-second.json", &second);
        let within = compare(&json::parse(&first)?, &json::parse(&second)?, &bounds)?;
        Ok(correct_a && correct_b && within)
    };
    match check() {
        Ok(true) => {
            println!("selfcheck: two runs agree within every bound and on every count");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("FAIL: selfcheck found a difference outside a bound, a changed count or an incorrect run");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("trinity-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
