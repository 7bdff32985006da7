//! Load generators: a closed loop pipelining a fixed number of requests
//! over one connection, and an open loop sending on a fixed schedule.

use crate::work::{Expect, Gen};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use theta_orchestration::Request;
use theta_service::RpcClient;

/// One request as the client saw it.
pub struct Outcome {
    /// Closed loop: when it was sent. Open loop: when it was due.
    pub start: Instant,
    /// When it was actually sent (later than `start` when the open loop
    /// ran behind schedule).
    pub sent: Instant,
    pub done: Instant,
    pub result: Result<Vec<u8>, String>,
    pub expect: Expect,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Closed loop over one connection: keeps `depth` requests outstanding
/// until `until`, then drains. Replies are collected in send order, so
/// with `depth > 1` a reply that overtakes an earlier one is timed when
/// the client reaches it, as a pipelining client in order sees it.
pub fn closed(client: &mut RpcClient, gen: &mut Gen, depth: usize, until: Instant) -> Vec<Outcome> {
    let mut inflight: VecDeque<(u64, Instant, Expect)> = VecDeque::new();
    let mut out = Vec::new();
    loop {
        while inflight.len() < depth && Instant::now() < until {
            let (request, expect) = gen.next();
            let sent = Instant::now();
            match client.submit_protocol(request) {
                Ok(id) => inflight.push_back((id, sent, expect)),
                Err(e) => {
                    // The connection is gone: record and stop sending.
                    let done = Instant::now();
                    let result = Err(format!("submit: {e}"));
                    out.push(Outcome {
                        start: sent,
                        sent,
                        done,
                        result,
                        expect,
                    });
                    return drain(client, inflight, out);
                }
            }
        }
        let Some((id, sent, expect)) = inflight.pop_front() else {
            return out;
        };
        let result = client
            .collect_protocol(id)
            .map(|(o, _)| o)
            .map_err(|e| e.to_string());
        out.push(Outcome {
            start: sent,
            sent,
            done: Instant::now(),
            result,
            expect,
        });
    }
}

fn drain(
    client: &mut RpcClient,
    inflight: VecDeque<(u64, Instant, Expect)>,
    mut out: Vec<Outcome>,
) -> Vec<Outcome> {
    for (id, sent, expect) in inflight {
        let result = client
            .collect_protocol(id)
            .map(|(o, _)| o)
            .map_err(|e| e.to_string());
        out.push(Outcome {
            start: sent,
            sent,
            done: Instant::now(),
            result,
            expect,
        });
    }
    out
}

/// A request scheduled for one entry node.
pub struct Scheduled {
    pub due: Instant,
    pub entry: usize,
    pub request: Request,
    pub expect: Expect,
}

struct Queue {
    /// Jobs not yet picked up, and whether the schedule has ended.
    jobs: Mutex<(VecDeque<Scheduled>, bool)>,
    ready: Condvar,
}

/// Open loop: sends each request at its due time through a pool of
/// `conns` blocking connections per entry node (the RPC client has no
/// split reader, so concurrency comes from connections). A request that
/// finds every connection of its node busy waits, and that wait counts
/// in its latency, which runs from the due time.
pub fn open(
    entries: &[SocketAddr],
    conns: usize,
    schedule: Vec<Scheduled>,
) -> Result<Vec<Outcome>, String> {
    let queues: Vec<Arc<Queue>> = entries
        .iter()
        .map(|_| {
            Arc::new(Queue {
                jobs: Mutex::new((VecDeque::new(), false)),
                ready: Condvar::new(),
            })
        })
        .collect();
    let mut workers = Vec::new();
    for (e, addr) in entries.iter().enumerate() {
        for _ in 0..conns {
            let mut client = RpcClient::connect(*addr, Duration::from_secs(5))
                .map_err(|err| format!("connect {addr}: {err}"))?;
            client.set_response_timeout(Some(Duration::from_secs(60)));
            let queue = queues[e].clone();
            workers.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                loop {
                    let job = {
                        let mut guard = queue.jobs.lock().expect("queue lock");
                        loop {
                            if let Some(job) = guard.0.pop_front() {
                                break Some(job);
                            }
                            if guard.1 {
                                break None;
                            }
                            guard = queue.ready.wait(guard).expect("queue lock");
                        }
                    };
                    let Some(job) = job else { return out };
                    let sent = Instant::now();
                    let result = client
                        .run_protocol(job.request)
                        .map(|(o, _)| o)
                        .map_err(|e| e.to_string());
                    out.push(Outcome {
                        start: job.due,
                        sent,
                        done: Instant::now(),
                        result,
                        expect: job.expect,
                    });
                }
            }));
        }
    }
    for job in schedule {
        let now = Instant::now();
        if job.due > now {
            std::thread::sleep(job.due - now);
        }
        let queue = &queues[job.entry];
        queue.jobs.lock().expect("queue lock").0.push_back(job);
        queue.ready.notify_one();
    }
    for queue in &queues {
        queue.jobs.lock().expect("queue lock").1 = true;
        queue.ready.notify_all();
    }
    let mut out = Vec::new();
    for worker in workers {
        out.extend(
            worker
                .join()
                .map_err(|_| "load worker panicked".to_string())?,
        );
    }
    out.sort_by_key(|o| o.start);
    Ok(out)
}
