// Package httpapi is the HTTP/JSON serving layer over one shared engine:
// /v1/query (single, streaming, multi-aggregate), the prepared-plan pair
// /v1/prepare + /v1/plans/{id}/query, the federation member round
// /v1/federate/sample, /v1/mutate for NDJSON mutation batches on live
// graphs, and /v1/healthz. The JSON work endpoints share one request
// pipeline (pipeline.go): one request head, one dispatch against a target
// (local engine, prepared plan or federation coordinator) and one response
// writer.
//
// The work endpoints sit behind an optional admission controller
// (ConfigureAdmission): per-client token buckets, a bounded in-flight
// pool with a bounded wait queue (fast typed 429/503 + Retry-After
// beyond), and honest degradation — under queue pressure or a tight
// deadline the effective error bound relaxes toward a configured floor
// and the response reports degraded/target_eb/effective_eb/achieved_eb,
// so clients always see the guarantee actually delivered. Every request
// carries an X-Request-ID and can emit one structured access-log line
// (ConfigureLogging); /debug/admission and the healthz admission block
// expose shed/degrade counters and latency percentiles. Drain sheds the
// queue and waits for in-flight work before shutdown.
package httpapi
