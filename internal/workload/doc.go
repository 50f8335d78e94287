// Package workload is the template-driven load engine behind cmd/kgaqload:
// it replays a scripted request mix against a kgaqd server at a fixed
// open-loop arrival rate and reports per-block latency and outcome
// statistics.
//
// A Script is a JSON document of weighted blocks, each one request shape:
// "query" and "multi" post to /v1/query, "prepare" compiles a plan (and can
// capture the returned plan id into the cross-request store), "plan_query"
// executes a captured plan, "mutate" streams an NDJSON batch. Request
// bodies are templates: ${...} placeholders draw values from a Catalog
// seeded by the served graph (entities by type, predicates, attribute
// names) plus numeric/choice/sequence generators and ${ref:key} lookups of
// captured values, so a script stays valid across datasets of any size.
//
// Arrival is open-loop: requests launch on a fixed cadence regardless of
// completions, bounded by MaxInFlight — arrivals that would exceed the
// bound are counted as dropped, never queued client-side, so offered load
// stays honest under server backpressure. The Report separates completed,
// shed (429/503 backpressure), degraded (honest relaxed-bound answers,
// with their achieved-eb distribution) and error outcomes per block, with
// p50/p95/p99 latencies.
package workload
