//! Workspace walking, rule dispatch, waiver application, and the
//! report format. This is the linter's top level: point [`lint_root`]
//! at a workspace root and get back the sorted finding list.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::{self, Finding, Rule};
use crate::source::{SourceFile, Waiver};

/// The result of linting one workspace root.
pub struct LintReport {
    /// All surviving findings, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
    /// Number of Rust files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked.
    pub manifests_checked: usize,
    /// Number of waivers honored (suppressed at least one finding).
    pub waivers_used: usize,
}

impl LintReport {
    /// True when the tree is clean.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// One `file:line rule-id message` line per finding.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{} {} {}\n",
                f.file,
                f.line,
                f.rule.id(),
                f.message
            ));
        }
        out
    }

    /// Machine-readable report for the CI job.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"ok\": {},\n", self.ok()));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"manifests_checked\": {},\n",
            self.manifests_checked
        ));
        out.push_str(&format!("  \"waivers_used\": {},\n", self.waivers_used));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.rule.id(),
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lints the workspace rooted at `root`. Errors only on I/O problems
/// (unreadable root); individual unreadable files are skipped.
pub fn lint_root(root: &Path) -> Result<LintReport, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }

    // ---- Rust sources under the four walk roots, plus `benchmark/src`,
    // which is read for `dead-pub` references only and never linted. --
    let parse_under = |walk_roots: &[&str]| -> Vec<SourceFile> {
        let mut rs_paths: Vec<PathBuf> = Vec::new();
        for walk_root in walk_roots {
            collect_rs(&root.join(walk_root), &mut rs_paths);
        }
        rs_paths.sort();
        rs_paths
            .iter()
            .filter_map(|path| {
                let text = fs::read_to_string(path).ok()?;
                Some(SourceFile::parse(&rel_of(root, path), &text))
            })
            .collect()
    };
    let files = parse_under(&["crates", "src", "tests", "examples"]);
    let benchmark_files = parse_under(&["benchmark/src"]);

    // ---- Per-file rules. -------------------------------------------
    let mut findings: Vec<Finding> = Vec::new();
    let mut budget_sites: Vec<(String, usize)> = Vec::new();
    for file in &files {
        for line in rules::rule_exec_parallelism(file, &mut findings) {
            budget_sites.push((file.rel_path.clone(), line));
        }
        rules::rule_digest_determinism(file, &mut findings);
        rules::rule_view_discipline(file, &mut findings);
        rules::rule_panic_hygiene(file, &mut findings);
        rules::rule_safety_comment(file, &mut findings);
    }

    // ---- Workspace-level rules. ------------------------------------
    // The exactly-one-budget-owner check only makes sense when the
    // workspace has an exec crate to own it (fixture trees may not).
    if files.iter().any(|f| f.crate_name == "exec") {
        rules::rule_exec_budget(&budget_sites, &mut findings);
    }
    rules::rule_wire_schema(&files, &mut findings);
    rules::rule_dead_pub(&files, &benchmark_files, &mut findings);

    let mut waivers: Vec<(String, Waiver, bool)> = Vec::new(); // (file, waiver, used)
    for file in &files {
        for w in &file.waivers {
            waivers.push((file.rel_path.clone(), w.clone(), false));
        }
    }

    let mut manifests_checked = 0usize;
    for manifest in manifest_paths(root) {
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        manifests_checked += 1;
        let rel = rel_of(root, &manifest);
        let check = rules::check_manifest(&rel, &text);
        findings.extend(check.findings);
        for w in check.waivers {
            waivers.push((rel.clone(), w, false));
        }
    }

    let baseline = fs::read_to_string(root.join(".github/bench-baseline.json")).ok();
    let mut ci_workflows: Vec<(String, String)> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join(".github/workflows")) {
        let mut wf_paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| e == "yml" || e == "yaml")
            })
            .collect();
        wf_paths.sort();
        for p in wf_paths {
            if let Ok(text) = fs::read_to_string(&p) {
                ci_workflows.push((rel_of(root, &p), text));
            }
        }
    }
    rules::rule_bench_gate(&files, baseline.as_deref(), &ci_workflows, &mut findings);

    // ---- Waiver application. ---------------------------------------
    // A waiver only suppresses when it names a known rule AND carries a
    // reason; defective waivers surface as stale-waiver findings below,
    // alongside the finding they failed to suppress.
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        let suppressed = waivers.iter_mut().any(|(file, w, used)| {
            let applies = *file == f.file
                && w.target_line == f.line
                && w.has_reason
                && Rule::waivable_from_id(&w.rule) == Some(f.rule);
            if applies {
                *used = true;
            }
            applies
        });
        if !suppressed {
            kept.push(f);
        }
    }
    let mut findings = kept;

    // ---- Waiver hygiene (stale-waiver). ----------------------------
    let mut waivers_used = 0usize;
    for (file, w, used) in &waivers {
        if *used {
            waivers_used += 1;
            continue;
        }
        let message = if Rule::waivable_from_id(&w.rule).is_none() {
            format!(
                "waiver names unknown or unwaivable rule `{}` — known rules: {}",
                w.rule,
                Rule::all()
                    .into_iter()
                    .filter(|r| *r != Rule::StaleWaiver)
                    .map(Rule::id)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        } else if !w.has_reason {
            format!(
                "waiver for `{}` has no reason — write down why the exception is sound",
                w.rule
            )
        } else {
            format!(
                "stale waiver for `{}` — it suppresses nothing on line {}; remove it",
                w.rule, w.target_line
            )
        };
        findings.push(Finding {
            file: file.clone(),
            line: w.line,
            rule: Rule::StaleWaiver,
            message,
        });
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.id(),
            b.message.as_str(),
        ))
    });

    Ok(LintReport {
        findings,
        files_scanned: files.len(),
        manifests_checked,
        waivers_used,
    })
}

/// Recursively collects `.rs` files, skipping build output and the
/// linter's own rule fixtures (they are deliberately full of
/// violations and are linted individually by the fixture tests).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_owned();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if name == "fixtures" && dir.file_name().and_then(|n| n.to_str()) == Some("tests") {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// All manifests the vendor rule inspects: the root, every
/// `crates/*/Cargo.toml`, every `vendor/*/Cargo.toml`.
fn manifest_paths(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    for parent in ["crates", "vendor"] {
        let Ok(entries) = fs::read_dir(root.join(parent)) else {
            continue;
        };
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                out.push(manifest);
            }
        }
    }
    out
}

/// Workspace-relative path with `/` separators.
fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_text_format_is_file_line_rule_message() {
        let report = LintReport {
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: Rule::PanicHygiene,
                message: "boom".into(),
            }],
            files_scanned: 1,
            manifests_checked: 0,
            waivers_used: 0,
        };
        assert_eq!(
            report.to_text(),
            "crates/x/src/lib.rs:7 panic-hygiene boom\n"
        );
        assert!(report.to_json().contains("\"rule\": \"panic-hygiene\""));
        assert!(!report.ok());
    }
}
