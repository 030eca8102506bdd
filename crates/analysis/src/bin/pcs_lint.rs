//! `pcs-lint`: static analysis of constraint query language programs from
//! the command line.
//!
//! ```text
//! pcs-lint [--strict] [--quiet] [--explain] FILE...
//! ```
//!
//! Parses each file, runs the [`pcs_analysis`] passes and prints every
//! finding as `file:line:column: severity[code]: message`.  With `--explain`
//! the compiled join plan of every (rule × delta-position) body is printed
//! after the findings, one `file:line:column: plan ...` line per delta
//! position with its bound-argument counts and slot program.  Exit status:
//!
//! * `0` — no error-severity findings (with `--strict`: no findings of
//!   warning severity or above),
//! * `1` — at least one file has error-severity findings,
//! * `2` — a file could not be read or parsed.

use std::process::ExitCode;

use pcs_analysis::{analyze, ProgramAnalysis, Severity};
use pcs_engine::ProgramPlans;
use pcs_lang::parse_program;

const USAGE: &str = "usage: pcs-lint [--strict] [--quiet] [--explain] FILE...\n\
  --strict   also fail (exit 1) on warning-severity findings\n\
  --quiet    print only the per-file summary lines\n\
  --explain  print the compiled join plan of every rule body";

fn main() -> ExitCode {
    let mut strict = false;
    let mut quiet = false;
    let mut explain = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--strict" => strict = true,
            "--quiet" | "-q" => quiet = true,
            "--explain" => explain = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("pcs-lint: unknown option {arg}\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut worst: u8 = 0;
    for file in &files {
        let status = lint_file(file, strict, quiet, explain);
        worst = worst.max(status);
    }
    ExitCode::from(worst)
}

/// Lints one file and prints its findings; returns the exit status it earns.
fn lint_file(file: &str, strict: bool, quiet: bool, explain: bool) -> u8 {
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("{file}: error: {err}");
            return 2;
        }
    };
    let program = match parse_program(&text) {
        Ok(program) => program,
        Err(err) => {
            eprintln!(
                "{file}:{}:{}: error[parse]: {}",
                err.line, err.column, err.message
            );
            return 2;
        }
    };
    let analysis = analyze(&program);
    if !quiet {
        for d in &analysis.diagnostics {
            match d.span {
                Some(span) => println!("{file}:{}:{}: {d}", span.line, span.column),
                None => println!("{file}: {d}"),
            }
        }
    }
    if explain {
        print_plans(file, &program);
    }
    println!("{file}: {}", summary(&analysis, program.rules().len()));
    let failed = analysis.has_errors()
        || (strict
            && analysis
                .diagnostics
                .iter()
                .any(|d| d.severity >= Severity::Warning));
    u8::from(failed)
}

/// Prints the compiled join plan of every (rule × delta-position) body of
/// the *source* program (whose rules carry parser spans), one line per plan —
/// the CLI counterpart of the shell's `.explain`.
fn print_plans(file: &str, program: &pcs_lang::Program) {
    let flat = program.flattened();
    let plans = ProgramPlans::compile(&flat);
    for rule_index in plans.planned_rules() {
        let rule = &flat.rules()[rule_index];
        let name = rule
            .label
            .clone()
            .unwrap_or_else(|| format!("#{}", rule_index + 1));
        let position = rule
            .span
            .map_or_else(|| "-:-".to_string(), |s| format!("{}:{}", s.line, s.column));
        for plan in plans.plans_for(rule_index) {
            println!("{file}:{position}: plan {name} {}", plan.render(rule));
        }
    }
}

fn summary(analysis: &ProgramAnalysis, rules: usize) -> String {
    let (e, w, i) = analysis.counts();
    let mut out = if e + w + i == 0 {
        format!("ok ({rules} rule(s) analyzed)")
    } else {
        format!("{e} error(s), {w} warning(s), {i} note(s) in {rules} rule(s)")
    };
    if !analysis.converged {
        out.push_str(" [constraint inference did not converge]");
    }
    out
}
