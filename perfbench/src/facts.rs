//! The machine facts every result carries, and the process's peak
//! resident memory.

use oorq_obs::json::Json;

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the working directory, read from `.git` without
/// running git (the benchmark may run in a checkout that is not a
/// repository).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The facts as one JSON object.
pub fn facts_json(seed: u64) -> String {
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("cpu".into(), Json::Str(cpu_model())),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
        (
            "profile".into(),
            Json::Str(env!("PERFBENCH_PROFILE").into()),
        ),
        ("git".into(), Json::Str(git_rev())),
        ("seed".into(), Json::Num(seed as f64)),
    ])
    .render()
}
