//! Event-loop blocking lint.
//!
//! Roots are functions annotated `// theta: event-loop` — the router's
//! inbox loop, the poll(2) front-end loop, and the TCP link reader
//! threads (spawn-closure children inherit the annotation from the
//! function that spawns them). Everything reachable from a root
//! through the call graph must not:
//!
//! - sleep (`thread::sleep`);
//! - block on a channel (`.recv()`, `.recv_timeout(..)`,
//!   `.recv_deadline(..)`, or a `select!`) or join a thread
//!   (`.join()`);
//! - wait on a condvar (`.wait(..)` / `.wait_timeout(..)`);
//! - do file I/O (`std::fs::*`, `File::open/create`, `OpenOptions`,
//!   `read_to_string`/`read_to_end`);
//! - call a function annotated `// theta: worker-only` (the
//!   compile-time analogue of the runtime `assert_off_router` check).
//!
//! A loop's one designated wait is marked where it happens, with an
//! inline `// theta: allow(blocking): <reason>`.

use crate::callgraph::CallGraph;
use crate::lexer::{TokKind, Token};
use crate::report::{Finding, Pass};
use crate::symbols::{FnId, Workspace};

fn has_marker(ws: &Workspace, id: FnId, marker: &str) -> bool {
    ws.fn_def(id).markers.iter().any(|m| m == marker)
}

/// Blocking facts inside one body: `(token index, kind, detail)`.
fn facts(toks: &[Token], positions: &[usize]) -> Vec<(usize, &'static str, String)> {
    let mut out = Vec::new();
    for &i in positions {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is(".");
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is("("));
        match t.text.as_str() {
            "sleep" if next_paren => {
                out.push((i, "sleep", "thread::sleep on an event-loop path".into()));
            }
            "recv" | "recv_timeout" | "recv_deadline" if prev_dot && next_paren => {
                out.push((i, "blocking-recv", format!("blocking channel .{}(..)", t.text)));
            }
            "select" if toks.get(i + 1).is_some_and(|n| n.is("!")) => {
                out.push((i, "blocking-recv", "select! channel wait".into()));
            }
            "join" if prev_dot && next_paren && toks.get(i + 2).is_some_and(|n| n.is(")")) => {
                out.push((i, "thread-join", "blocking .join()".into()));
            }
            "wait" | "wait_timeout" if prev_dot && next_paren => {
                out.push((i, "condvar-wait", format!("condvar .{}(..)", t.text)));
            }
            "fs" if toks.get(i + 1).is_some_and(|n| n.is("::")) => {
                let what = toks
                    .get(i + 2)
                    .map(|n| n.text.clone())
                    .unwrap_or_default();
                out.push((i, "file-io", format!("std::fs::{what}")));
            }
            "File" if toks.get(i + 1).is_some_and(|n| n.is("::")) => {
                out.push((i, "file-io", "File::open/create".into()));
            }
            "OpenOptions" => {
                out.push((i, "file-io", "OpenOptions file I/O".into()));
            }
            "read_to_string" | "read_to_end" if next_paren => {
                out.push((i, "file-io", format!(".{}(..)", t.text)));
            }
            _ => {}
        }
    }
    out
}

pub fn run(ws: &Workspace, cg: &CallGraph) -> Vec<Finding> {
    let roots: Vec<FnId> = ws
        .all_fns()
        .filter(|&id| !ws.fn_def(id).in_test && has_marker(ws, id, "event-loop"))
        .collect();
    let parents = cg.reach(&roots);

    let mut findings = Vec::new();
    for &id in parents.keys() {
        let f = ws.fn_def(id);
        // A worker-only fn reachable from an event loop is itself the
        // finding, whatever its body does.
        if has_marker(ws, id, "worker-only") {
            findings.push(Finding {
                pass: Pass::Blocking,
                id: String::new(),
                file: ws.file(id).path.clone(),
                line: f.line,
                func: f.qualified.clone(),
                kind: "worker-only-on-loop".into(),
                detail: "worker-only function reachable from an event loop".into(),
                path: cg.path_to(ws, &parents, id),
            });
            // Its body is *expected* to do heavy work — don't also
            // report every blocking fact inside it.
            continue;
        }
        let toks = ws.tokens(id);
        let positions = ws.effective_positions(id);
        for (pos, kind, detail) in facts(toks, &positions) {
            findings.push(Finding {
                pass: Pass::Blocking,
                id: String::new(),
                file: ws.file(id).path.clone(),
                line: toks[pos].line,
                func: f.qualified.clone(),
                kind: kind.into(),
                detail,
                path: cg.path_to(ws, &parents, id),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, report, symbols};

    fn run_on(src: &str) -> Vec<Finding> {
        let ws = symbols::build(vec![("crates/a/src/b.rs".into(), src.into())]);
        let cg = callgraph::build(&ws);
        let mut f = run(&ws, &cg);
        report::assign_ids(&mut f);
        f
    }

    #[test]
    fn sleep_reachable_from_loop_is_flagged_with_path() {
        let f = run_on(
            "// theta: event-loop\nfn run_loop() { step(); }\n\
             fn step() { helper(); }\n\
             fn helper() { std::thread::sleep(d); }\n\
             fn not_reachable() { std::thread::sleep(d); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].kind, "sleep");
        assert_eq!(f[0].path, vec!["b::run_loop", "b::step", "b::helper"]);
    }

    #[test]
    fn method_recv_and_file_io_are_flagged() {
        let f = run_on(
            "// theta: event-loop\nfn run_loop(rx: &Receiver) {\n\
             let m = rx.recv();\n let s = std::fs::read_to_string(p);\n}\n",
        );
        let kinds: Vec<&str> = f.iter().map(|x| x.kind.as_str()).collect();
        assert!(kinds.contains(&"blocking-recv"), "{f:#?}");
        assert!(kinds.contains(&"file-io"), "{f:#?}");
    }

    #[test]
    fn timed_recvs_and_select_are_blocking_waits() {
        let f = run_on(
            "// theta: event-loop\nfn run_loop(rx: &Receiver) {\n\
             rx.recv_deadline(t);\n rx.recv_timeout(d);\n\
             select! { recv(rx) -> msg => {} }\n}\n",
        );
        assert_eq!(f.len(), 3, "{f:#?}");
        assert!(f.iter().all(|x| x.kind == "blocking-recv"), "{f:#?}");
    }

    #[test]
    fn worker_only_reachable_is_the_finding_and_body_is_not_scanned() {
        let f = run_on(
            "// theta: event-loop\nfn run_loop() { heavy(); }\n\
             // theta: worker-only\nfn heavy() { std::fs::write(p, d); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].kind, "worker-only-on-loop");
    }

    #[test]
    fn spawn_child_inherits_event_loop_root() {
        let f = run_on(
            "// theta: event-loop\nfn spawn_reader() {\n\
             std::thread::Builder::new().spawn(move || { loop { conn.recv().ok(); } }).expect(\"spawn\");\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].kind, "blocking-recv");
        assert!(f[0].func.contains("::spawn@"), "{f:#?}");
    }

    #[test]
    fn off_loop_worker_code_is_free_to_block() {
        let f = run_on("fn worker_side() { rx.recv(); std::thread::sleep(d); }\n");
        assert!(f.is_empty(), "{f:#?}");
    }
}
