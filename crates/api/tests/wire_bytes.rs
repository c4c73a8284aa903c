//! Pins the exact wire bytes of one request and one response of every
//! kind, plus the envelope and result-line framings around them. The
//! round-trip suites prove encode → parse → encode is stable; this suite
//! proves the encoded text itself never drifts, since stored journals,
//! cache keys in flight and router byte-identity all depend on it.

use gcco_api::json::{
    encode_envelope, encode_error_line, encode_request, encode_response, encode_result_line,
    encode_result_line_with_note, parse_request, parse_response, Envelope, Json, PROTOCOL_VERSION,
};
use gcco_api::{
    BaselineMetric, BaselineOut, BaselineSpec, BestDesignOut, CdrArchKind, ChannelOut,
    ComboReportOut, DsimRunOut, DsimRunSpec, EvalRequest, EvalResponse, GccoError, JtolPointOut,
    ModelSpec, MultiChannelSpec, OptimizeOut, OptimizeSpec, PowerPointOut, PowerScanSpec,
    RunDistSpec, SizedCellOut,
};
use gcco_stat::SamplingTap;

fn requests() -> Vec<EvalRequest> {
    let spec = ModelSpec::paper_table1();
    vec![
        EvalRequest::ber_point_at(spec.clone(), 0.25, 0.125),
        EvalRequest::ber_grid(
            spec.clone()
                .with_run_dist(RunDistSpec::Counts(vec![0, 7, 3])),
            vec![0.1, 0.2],
            vec![1e-3, 0.5],
        ),
        EvalRequest::jtol_curve(spec.clone(), vec![0.01, 0.1], 1e-12),
        EvalRequest::ftol_search(spec.with_freq_offset(-0.01), 1e-9),
        EvalRequest::power_scan(PowerScanSpec::paper_design()),
        EvalRequest::dsim_run(DsimRunSpec {
            seed: u64::MAX,
            ..DsimRunSpec::paper_ring()
        }),
        EvalRequest::multi_channel(MultiChannelSpec::paper_quad()),
        EvalRequest::optimize(OptimizeSpec::quick_flow()),
        EvalRequest::baseline(
            CdrArchKind::ALL[1],
            BaselineSpec::typical(CdrArchKind::ALL[1]),
            BaselineMetric::CaptureRange { hi: 0.01 },
        ),
    ]
}

fn responses() -> Vec<EvalResponse> {
    vec![
        EvalResponse::Scalar { value: 1.5e-13 },
        EvalResponse::Grid {
            rows: vec![vec![0.1, -0.0], vec![f64::MIN_POSITIVE, 2.5]],
        },
        EvalResponse::Jtol {
            points: vec![JtolPointOut {
                freq_norm: 0.01,
                amplitude_pp: 0.75,
                censored: true,
            }],
        },
        EvalResponse::Ftol { value: 0.0033 },
        EvalResponse::Power {
            sized: Some(SizedCellOut {
                iss_a: 1.2e-4,
                swing_v: 0.4,
                delay_fs: -50_000,
            }),
            points: vec![PowerPointOut {
                iss_a: 1e-5,
                ring_power_mw: 0.05,
                sigma_ui: 0.031,
            }],
        },
        EvalResponse::Dsim {
            run: DsimRunOut {
                period_ps_mean: 400.0,
                period_ps_rms: 0.0,
                rising_edges: 249,
                events: 2000,
            },
        },
        EvalResponse::MultiChannel {
            channels: vec![ChannelOut {
                index: 3,
                freq_offset: -0.002,
                ber: 2.5e-13,
                settling_ui: 11.0,
            }],
            worst_ber: 2.5e-13,
            yield_pct: 100.0,
            mw_per_gbps: None,
            within_budget: false,
        },
        EvalResponse::Optimize {
            out: OptimizeOut {
                best: Some(BestDesignOut {
                    spec: ModelSpec::paper_table1(),
                    mw_per_gbps: 1.597,
                    worst_ber: 1e-13,
                    margin: 0.00295,
                    settling_ui: 9.5,
                }),
                per_combo: vec![ComboReportOut {
                    tap: SamplingTap::Improved,
                    cid_max: 5,
                    ckj_rms: Some(0.0399),
                    mw_per_gbps: None,
                    worst_ber: Some(1e-13),
                    probes: 17,
                }],
                probes: 64,
                store_hits: 0,
                converged: true,
            },
        },
        EvalResponse::Baseline {
            out: BaselineOut {
                lock_bits: Some(207),
                errors: 3,
                updates: 14_975,
                residual_rms_ui: Some(0.0123),
                capture_range: None,
                jtol_amp_pp: Some(0.75),
            },
        },
    ]
}

const REQUESTS: [&str; 9] = [
    r#"{"type":"ber_point","spec":SPEC,"sj":{"amplitude_pp":0.25,"freq_norm":0.125}}"#,
    r#"{"type":"ber_grid","spec":{"dj_pp":0.4,"rj_rms":0.021,"sj_pp":0.0,"sj_freq_norm":0.1,"ckj_rms":0.01,"cid_max":5,"run_dist":{"counts":[0,7,3]},"tap":"standard","freq_offset":0.0,"edge_model":"resync_referenced","include_slip":true,"gating_tau_ui":null,"grid_step":0.001},"amps_pp":[0.1,0.2],"freqs_norm":[0.001,0.5]}"#,
    r#"{"type":"jtol_curve","spec":SPEC,"freqs_norm":[0.01,0.1],"target_ber":1e-12}"#,
    r#"{"type":"ftol_search","spec":{"dj_pp":0.4,"rj_rms":0.021,"sj_pp":0.0,"sj_freq_norm":0.1,"ckj_rms":0.01,"cid_max":5,"run_dist":{"geometric":5},"tap":"standard","freq_offset":-0.01,"edge_model":"resync_referenced","include_slip":true,"gating_tau_ui":null,"grid_step":0.001},"target_ber":1e-9}"#,
    r#"{"type":"power_scan","scan":{"bit_rate_gbps":2.5,"swing_v":0.4,"n_stages":4,"cid":5,"eta":0.75,"sigma_ui_target":0.01,"iss_min_ua":2.0,"iss_max_ua":2000.0,"steps":25,"iss_sizing_max_a":0.01}}"#,
    r#"{"type":"dsim_run","run":{"seed":18446744073709551615,"stages":4,"stage_delay_ps":50.0,"jitter_rel":0.0,"duration_ns":100.0}}"#,
    r#"{"type":"multi_channel","mc":{"channels":4,"mismatch_sigma":0.002,"ripple_rms_ui":0.005,"seed":1,"bit_rate_gbps":2.5,"target_ber":1e-12,"spec":SPEC}}"#,
    r#"{"type":"optimize","opt":{"base":SPEC,"target_ber":1e-12,"budget_mw_per_gbps":5.0,"bit_rate_gbps":2.5,"freq_margin":0.002,"margin_hi":0.01,"taps":["standard","improved"],"cids":[5],"ckj_lo":0.002,"ckj_hi":0.04,"rel_tol":0.1,"seed":1,"max_probes":128}}"#,
    r#"{"type":"baseline","arch":"mueller_muller","spec":{"bits":100000,"seed":1,"bit_rate_gbps":2.5,"freq_offset":0.0,"kp":0.05,"ki":0.0006250000000000001,"sj_amp_pp":0.0,"sj_freq_norm":0.01,"rj_rms_ui":0.0},"metric":{"kind":"capture_range","hi":0.01}}"#,
];

const RESPONSES: [&str; 9] = [
    r#"{"type":"scalar","value":1.5e-13}"#,
    r#"{"type":"grid","rows":[[0.1,-0.0],[2.2250738585072014e-308,2.5]]}"#,
    r#"{"type":"jtol","points":[{"freq_norm":0.01,"amplitude_pp":0.75,"censored":true}]}"#,
    r#"{"type":"ftol","value":0.0033}"#,
    r#"{"type":"power","sized":{"iss_a":0.00012,"swing_v":0.4,"delay_fs":-50000},"points":[{"iss_a":1e-5,"ring_power_mw":0.05,"sigma_ui":0.031}]}"#,
    r#"{"type":"dsim","run":{"period_ps_mean":400.0,"period_ps_rms":0.0,"rising_edges":249,"events":2000}}"#,
    r#"{"type":"multi_channel","channels":[{"index":3,"freq_offset":-0.002,"ber":2.5e-13,"settling_ui":11.0}],"worst_ber":2.5e-13,"yield_pct":100.0,"mw_per_gbps":null,"within_budget":false}"#,
    r#"{"type":"optimize","best":{"spec":SPEC,"mw_per_gbps":1.597,"worst_ber":1e-13,"margin":0.00295,"settling_ui":9.5},"per_combo":[{"tap":"improved","cid_max":5,"ckj_rms":0.0399,"mw_per_gbps":null,"worst_ber":1e-13,"probes":17}],"probes":64,"store_hits":0,"converged":true}"#,
    r#"{"type":"baseline","out":{"lock_bits":207,"errors":3,"updates":14975,"residual_rms_ui":0.0123,"capture_range":null,"jtol_amp_pp":0.75}}"#,
];

/// The Table 1 spec as the encoder writes it (`SPEC` in the tables above).
const SPEC: &str = r#"{"dj_pp":0.4,"rj_rms":0.021,"sj_pp":0.0,"sj_freq_norm":0.1,"ckj_rms":0.01,"cid_max":5,"run_dist":{"geometric":5},"tap":"standard","freq_offset":0.0,"edge_model":"resync_referenced","include_slip":true,"gating_tau_ui":null,"grid_step":0.001}"#;

fn expand(template: &str) -> String {
    template.replace("SPEC", SPEC)
}

#[test]
fn every_request_kind_encodes_to_its_pinned_bytes() {
    for (req, want) in requests().iter().zip(REQUESTS) {
        let want = expand(want);
        assert_eq!(encode_request(req), want, "{}", req.kind());
        let back = parse_request(&Json::parse(&want).unwrap()).unwrap();
        assert_eq!(&back, req, "{}", req.kind());
    }
}

#[test]
fn every_response_kind_encodes_to_its_pinned_bytes() {
    for (resp, want) in responses().iter().zip(RESPONSES) {
        let want = expand(want);
        assert_eq!(encode_response(resp), want, "{}", resp.kind());
        let back = parse_response(&Json::parse(&want).unwrap()).unwrap();
        assert_eq!(&back, resp, "{}", resp.kind());
    }
}

#[test]
fn envelopes_and_result_lines_encode_to_their_pinned_bytes() {
    let env = Envelope {
        id: u64::MAX,
        v: Some(PROTOCOL_VERSION),
        deadline_ms: None,
        request: EvalRequest::ftol_search(ModelSpec::paper_table1(), 1e-12),
    };
    let body = expand(r#"{"type":"ftol_search","spec":SPEC,"target_ber":1e-12}"#);
    assert_eq!(
        encode_envelope(&env),
        format!(r#"{{"id":18446744073709551615,"v":2,"deadline_ms":null,"request":{body}}}"#)
    );
    let unversioned = Envelope {
        id: 9,
        v: None,
        deadline_ms: Some(250),
        ..env
    };
    assert_eq!(
        encode_envelope(&unversioned),
        format!(r#"{{"id":9,"deadline_ms":250,"request":{body}}}"#)
    );
    assert_eq!(
        encode_result_line(7, &Ok(EvalResponse::Ftol { value: 0.033 })),
        r#"{"id":7,"ok":{"type":"ftol","value":0.033}}"#
    );
    assert_eq!(
        encode_result_line(8, &Err(GccoError::QueueFull { capacity: 4 })),
        r#"{"id":8,"err":{"kind":"queue_full","detail":"request queue at capacity (4)"}}"#
    );
    assert_eq!(
        encode_result_line_with_note(9, Some("a \"b\"\n"), &Err(GccoError::ShuttingDown)),
        r#"{"id":9,"note":"a \"b\"\n","err":{"kind":"shutting_down","detail":"service is shutting down"}}"#
    );
    assert_eq!(
        encode_error_line(&GccoError::Parse("bad".into())),
        r#"{"err":{"kind":"parse_error","detail":"bad"}}"#
    );
}
