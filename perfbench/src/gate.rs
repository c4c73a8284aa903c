//! The correctness gate: every reply must be byte-identical to
//! `encode_result_line(id, &reference.evaluate(req))`, computed outside
//! the timed window by fresh in-process engines.

use crate::gen::Call;
use crate::system::{one_thread_engine, Reply};
use gcco_api::json::{encode_parsed_result_line, encode_result_line};
use gcco_api::{EvalRequest, EvalResponse, GccoError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Reference results by request cache key.
pub type References = HashMap<String, Result<EvalResponse, GccoError>>;

/// Evaluates every distinct request of `calls` on `threads` fresh
/// one-thread engines. Responses are deterministic functions of the
/// request, so each distinct cache key is evaluated once.
pub fn references<'a>(calls: impl IntoIterator<Item = &'a Call>, threads: usize) -> References {
    let mut distinct: Vec<&EvalRequest> = Vec::new();
    let mut keys = std::collections::HashSet::new();
    for env in calls.into_iter().flatten() {
        if keys.insert(env.request.cache_key()) {
            distinct.push(&env.request);
        }
    }
    let next = AtomicUsize::new(0);
    let out = Mutex::new(References::with_capacity(distinct.len()));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let engine = one_thread_engine();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = distinct.get(i) else { break };
                    let result = engine.evaluate(req);
                    out.lock()
                        .expect("reference map lock poisoned")
                        .insert(req.cache_key(), result);
                }
            });
        }
    });
    out.into_inner().expect("reference map lock poisoned")
}

/// The line the reference engine says `id` must be answered with.
pub fn expected_line(refs: &References, id: u64, req: &EvalRequest) -> String {
    encode_result_line(id, &refs[&req.cache_key()])
}

/// The tally of one gated call.
#[derive(Default)]
pub struct Verdict {
    /// Envelopes whose reply matched the reference byte for byte.
    pub matched: u64,
    /// Envelopes answered with an error, or not answered at all.
    pub failed: u64,
    /// Descriptions of every envelope whose reply is not the reference
    /// line: a differing response, an error reply, or no reply.
    pub mismatches: Vec<String>,
}

impl Verdict {
    /// Folds another call's tally into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.matched += other.matched;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
    }

    /// Whether every envelope was answered with its reference line.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

/// Gates one call's replies: every envelope must be answered with exactly
/// the reference line. An error reply (`queue_full` included) differs
/// from the reference's response, so it is a mismatch as well as a
/// failure; so is an envelope left unanswered, or a call lost to a
/// transport error.
///
/// `optimize` results carry `store_hits`, a run-local statistic that
/// depends on what the store held before the call, so it is the one
/// field taken from the reference before comparing.
pub fn verify(call: &Call, reply: &Result<Reply, GccoError>, refs: &References) -> Verdict {
    let mut v = Verdict::default();
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) => {
            v.failed = call.len() as u64;
            v.mismatches
                .push(format!("call of {} envelopes lost: {e}", call.len()));
            return v;
        }
    };
    // Each answered envelope's reply, as the line it would be on the wire.
    let mut got: HashMap<u64, (bool, String)> = HashMap::with_capacity(call.len());
    match reply {
        Reply::Wire(lines) => {
            let reqs: HashMap<u64, &EvalRequest> =
                call.iter().map(|e| (e.id, &e.request)).collect();
            for line in lines {
                let mut line = line.clone();
                if let (Ok(resp), Some(req)) = (&line.result, reqs.get(&line.id)) {
                    line.result = Ok(with_reference_store_hits(resp, &refs[&req.cache_key()]));
                }
                got.insert(
                    line.id,
                    (line.result.is_ok(), encode_parsed_result_line(&line)),
                );
            }
        }
        Reply::Local(results) => {
            for (env, result) in call.iter().zip(results) {
                let reference = &refs[&env.request.cache_key()];
                let result = result
                    .as_ref()
                    .map(|resp| with_reference_store_hits(resp, reference))
                    .map_err(Clone::clone);
                got.insert(
                    env.id,
                    (result.is_ok(), encode_result_line(env.id, &result)),
                );
            }
        }
    }
    for env in call {
        let want = expected_line(refs, env.id, &env.request);
        match got.get(&env.id) {
            Some((_, line)) if *line == want => v.matched += 1,
            Some((ok, line)) => {
                v.failed += u64::from(!ok);
                v.mismatches.push(format!(
                    "id {} ({}): got {} want {}",
                    env.id,
                    env.request.kind(),
                    clip(line),
                    clip(&want)
                ));
            }
            None => {
                v.failed += 1;
                v.mismatches.push(format!(
                    "id {} ({}): no reply, want {}",
                    env.id,
                    env.request.kind(),
                    clip(&want)
                ));
            }
        }
    }
    v
}

/// `resp` with an `optimize` report's `store_hits` replaced by the
/// reference's; every other response unchanged.
fn with_reference_store_hits(
    resp: &EvalResponse,
    reference: &Result<EvalResponse, GccoError>,
) -> EvalResponse {
    match (resp, reference) {
        (EvalResponse::Optimize { out }, Ok(EvalResponse::Optimize { out: want })) => {
            let mut out = out.clone();
            out.store_hits = want.store_hits;
            EvalResponse::Optimize { out }
        }
        _ => resp.clone(),
    }
}

fn clip(s: &str) -> String {
    if s.len() <= 160 {
        s.to_string()
    } else {
        let mut end = 160;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Workload};
    use gcco_api::json::{parse_result_line, ResultLine};

    fn wire(lines: &[String]) -> Result<Reply, GccoError> {
        Ok(Reply::Wire(
            lines
                .iter()
                .map(|l| parse_result_line(l).expect("a result line"))
                .collect(),
        ))
    }

    #[test]
    fn only_the_reference_line_passes() {
        let mut g = Generator::new(Workload::PointRtt, 1);
        let call = g.next_call();
        let refs = references([&call], 1);
        let good = expected_line(&refs, call[0].id, &call[0].request);
        let ok = verify(&call, &wire(std::slice::from_ref(&good)), &refs);
        assert_eq!((ok.matched, ok.failed, ok.mismatches.len()), (1, 0, 0));
        assert!(ok.passed());

        // Nudge one digit of the BER: still parseable, no longer identical.
        let pos = good
            .rfind(|c: char| c.is_ascii_digit() && c != '9')
            .expect("a digit");
        let mut bad = good.clone().into_bytes();
        bad[pos] += 1;
        let bad = String::from_utf8(bad).expect("ascii");
        let v = verify(&call, &wire(&[bad]), &refs);
        assert_eq!((v.failed, v.mismatches.len()), (0, 1));
        assert!(!v.passed());
    }

    #[test]
    fn an_error_reply_to_a_request_with_a_response_fails_the_run() {
        let mut g = Generator::new(Workload::PointRtt, 2);
        let call = g.next_call();
        let refs = references([&call], 1);
        assert!(refs[&call[0].request.cache_key()].is_ok());
        for e in [
            GccoError::QueueFull { capacity: 64 },
            GccoError::Io("reset".into()),
        ] {
            let line = encode_result_line(call[0].id, &Err(e.clone()));
            let v = verify(&call, &wire(&[line]), &refs);
            assert_eq!((v.matched, v.failed, v.mismatches.len()), (0, 1, 1));
            assert!(!v.passed());
            let v = verify(&call, &Ok(Reply::Local(vec![Err(e)])), &refs);
            assert_eq!((v.matched, v.failed, v.mismatches.len()), (0, 1, 1));
        }
        let unanswered = verify(&call, &Ok(Reply::Wire(Vec::<ResultLine>::new())), &refs);
        assert!(!unanswered.passed());
        let lost = verify(&call, &Err(GccoError::Io("refused".into())), &refs);
        assert_eq!((lost.failed, lost.mismatches.len()), (1, 1));
    }
}
