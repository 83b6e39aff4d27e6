//! End-to-end tests of the `r2d2` command-line driver.

use std::io::Write;
use std::process::Command;

const KERNEL: &str = r#"
.kernel demo params=2 {
  mov.b32 %r0, %tid.x;
  mov.b32 %r1, %ctaid.x;
  mov.b32 %r2, %ntid.x;
  mad.b32 %r3, %r1, %r2, %r0;
  cvt.b64 %r4, %r3;
  shl.b64 %r5, %r4, 2;
  ld.param.b64 %r6, [P0];
  add.b64 %r7, %r6, %r5;
  ld.global.f32 %r8, [%r7];
  mul.f32 %r9, %r8, %r8;
  ld.param.b64 %r10, [P1];
  add.b64 %r11, %r10, %r5;
  st.global.f32 [%r11], %r9;
  exit;
}
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_r2d2"))
}

fn kernel_file() -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().unwrap();
    f.write_all(KERNEL.as_bytes()).unwrap();
    f.into_temp_path()
}

// A tiny tempfile shim (no external dependency): write to a unique path.
mod tempfile {
    use std::path::PathBuf;

    pub struct NamedTempFile(std::fs::File, PathBuf);
    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<Self> {
            let p = std::env::temp_dir().join(format!(
                "r2d2-cli-test-{}-{:?}.kasm",
                std::process::id(),
                std::thread::current().id()
            ));
            Ok(NamedTempFile(std::fs::File::create(&p)?, p))
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.1)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.0, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.0)
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = std::path::Path;
        fn deref(&self) -> &Self::Target {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[test]
fn list_names_all_workloads() {
    let out = bin().arg("list").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for (name, _) in r2d2_workloads::NAMES {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn analyze_prints_coefficient_vectors() {
    let path = kernel_file();
    let out = bin().arg("analyze").arg(&*path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("linear registers"));
    assert!(
        text.contains("{P0,4,0,0"),
        "expected the address vector:\n{text}"
    );
}

#[test]
fn transform_prints_decoupled_kernel() {
    let path = kernel_file();
    let out = bin().arg("transform").arg(&*path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("%lr0"), "{text}");
    assert!(text.contains("starting PCs"));
}

#[test]
fn run_executes_on_the_simulator() {
    let path = kernel_file();
    let out = bin()
        .args(["run"])
        .arg(&*path)
        .args([
            "--grid", "4", "--block", "128", "--buf", "2048", "--buf", "2048", "--sms", "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cycles:"));
    assert!(text.contains("warp instructions:"));
}

#[test]
fn run_r2d2_reports_transformed_launch() {
    let path = kernel_file();
    let out = bin()
        .args(["run"])
        .arg(&*path)
        .args([
            "--grid", "4", "--block", "128", "--buf", "2048", "--buf", "2048", "--r2d2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("R2D2-transformed"), "{text}");
}

/// The value printed on `r2d2 workload`'s line starting with `label`.
fn printed(text: &str, label: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {label:?} line in:\n{text}"))
}

#[test]
fn workload_subcommand_runs() {
    use r2d2_harness::{execute, JobSpec, ModelSpec};
    for (name, model) in [("dac", ModelSpec::Dac), ("r2d2", ModelSpec::R2d2)] {
        let out = bin()
            .args(["workload", "NN", "--model", name])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("energy:"));
        let want = execute(&JobSpec::new("NN", r2d2_workloads::Size::Small, model))
            .unwrap()
            .stats;
        assert_eq!(printed(&text, "cycles:"), want.cycles, "{name}");
        assert_eq!(
            printed(&text, "warp instructions:"),
            want.warp_instrs,
            "{name}"
        );
    }
    // Ideals counts instructions without timing them, so there is nothing
    // to print; an unknown model is a usage error.
    for model in ["ideals", "warp-drive"] {
        let out = bin()
            .args(["workload", "NN", "--model", model])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--model {model}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "--model {model}"
        );
    }
}

#[test]
fn trace_prints_dynamic_instructions() {
    let path = kernel_file();
    let out = bin()
        .args(["trace"])
        .arg(&*path)
        .args([
            "--grid", "1", "--block", "32", "--buf", "512", "--buf", "512", "--limit", "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().filter(|l| l.starts_with("blk")).count(), 5);
    assert!(text.contains("truncated"));
}

#[test]
fn bad_usage_exits_nonzero() {
    // Garbage subcommand: usage on stderr, exit code 2.
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    assert!(out.stdout.is_empty());
    // No subcommand at all behaves the same.
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Bad arguments to real subcommands: exit code 1 with an error line.
    for args in [
        vec!["workload", "NOPE"],
        vec!["analyze"],
        vec!["analyze", "/nonexistent/k.kasm"],
        vec!["run"],
        vec!["run", "/nonexistent/k.kasm"],
        vec!["sweep"],
        vec!["sweep", "run"],
        vec!["sweep", "run", "nope-not-a-set"],
        vec!["sweep", "run", "fig13", "--size", "tiny"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} should fail cleanly");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?} should explain itself"
        );
    }
}

#[test]
fn profile_emits_valid_stable_chrome_trace() {
    let tmp = std::env::temp_dir().join(format!("r2d2-profile-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let run = |sub: &str| {
        let out_dir = tmp.join(sub);
        let out = bin()
            .args([
                "profile",
                "vecadd",
                "r2d2",
                "--buckets",
                "32",
                "--sms",
                "8",
                "--out",
            ])
            .arg(&out_dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("invariant holds"), "{text}");
        assert!(text.contains("stall_dram"), "{text}");
        let trace = std::fs::read_dir(&out_dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.to_string_lossy().ends_with(".trace.json"))
            .expect("a .trace.json artifact");
        for ext in [".buckets.csv", ".stalls.csv"] {
            let sibling = trace.to_string_lossy().replace(".trace.json", ext);
            assert!(std::path::Path::new(&sibling).is_file(), "missing {ext}");
        }
        std::fs::read_to_string(trace).unwrap()
    };

    let a = run("a");
    // Valid Chrome trace_event JSON under the workspace's own parser: an
    // object envelope with a non-empty traceEvents array of X/C/M events.
    let v = r2d2_trace::json::parse(&a).expect("trace parses");
    let events = v
        .get("traceEvents")
        .and_then(r2d2_trace::json::Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev.get("ph").and_then(r2d2_trace::json::Value::as_str);
        assert!(
            matches!(ph, Some("X" | "C" | "M")),
            "unexpected event phase {ph:?}"
        );
    }
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(r2d2_trace::json::Value::as_str) == Some("stall_cycles")
                && e.get("args").and_then(|a| a.get("dram")).is_some()
        }),
        "expected a stall_cycles counter track with a dram arg"
    );

    // Golden stability: a re-run produces byte-identical artifacts.
    let b = run("b");
    assert_eq!(a, b, "trace output must be deterministic");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn sweep_list_names_every_set() {
    let out = bin().args(["sweep", "list"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    for set in [
        "fig04", "fig12", "fig13", "fig14", "fig15", "fig16", "table3", "sec54", "sec57", "sec58",
    ] {
        assert!(text.contains(set), "missing {set}:\n{text}");
    }
}

#[test]
fn sweep_run_populates_then_hits_the_cache() {
    let results = std::env::temp_dir().join(format!("r2d2-sweep-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    let run = |extra: &[&str]| {
        let mut c = bin();
        c.env("R2D2_RESULTS", &results)
            .args(["sweep", "run", "sec57", "--size", "small", "--jobs", "2"])
            .args(extra);
        let out = c.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let cold = run(&[]);
    assert!(cold.contains("4 jobs: 0 cached, 4 simulated"), "{cold}");
    let warm = run(&[]);
    assert!(warm.contains("4 jobs: 4 cached, 0 simulated"), "{warm}");
    let refresh = run(&["--no-cache"]);
    assert!(
        refresh.contains("4 jobs: 0 cached, 4 simulated"),
        "{refresh}"
    );
    assert!(results.join("run_records.csv").is_file());
    // clean removes exactly the cache entries (*.json under cache/), never
    // sibling artifacts: the exported CSV and non-entry files survive.
    let stray = results.join("cache").join("README.txt");
    std::fs::write(&stray, "not a cache entry").unwrap();
    let out = bin()
        .env("R2D2_RESULTS", &results)
        .args(["sweep", "clean"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed 4"));
    assert!(
        results.join("cache").join("README.txt").is_file(),
        "clean must only touch *.json cache entries"
    );
    assert!(
        results.join("run_records.csv").is_file(),
        "clean must not delete exported artifacts"
    );
    assert_eq!(
        std::fs::read_dir(results.join("cache"))
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count(),
        0,
        "every cache entry is gone"
    );
    let _ = std::fs::remove_dir_all(&stray);
    let _ = std::fs::remove_dir_all(&results);
}
