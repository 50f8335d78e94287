#!/usr/bin/env bash
# smoke-load.sh BASE_URL SECONDS: a smoke load against one kgaqd, or a
# federation coordinator, serving the tiny profile. It prepares one plan,
# then for SECONDS cycles through an AVG query, a COUNT query, a COUNT+AVG
# multi-aggregate query, the prepared plan and an NDJSON mutate batch. A 2xx
# completes, 429/503 is shed, another 4xx is refused; any other status
# (5xx, or 000 when curl gets no response) fails. Exits 1 on a failure or
# when nothing completed.
#
# Sourced (`. .github/smoke-load.sh`), it only defines wait_healthy URL,
# which exits 1 unless URL/v1/healthz answers within 10 s.
wait_healthy() {
  for _ in $(seq 1 50); do
    curl -sf "$1/v1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "FAIL: $1/v1/healthz did not answer within 10 s" >&2
  exit 1
}
[ "${BASH_SOURCE[0]}" = "$0" ] || return 0
set -u
URL=${1:?usage: smoke-load.sh BASE_URL SECONDS}
DURATION=${2:?usage: smoke-load.sh BASE_URL SECONDS}
wait_healthy "$URL"
BODY=$(mktemp) && trap 'rm -f "$BODY"' EXIT
declare -Ai tally
# send KIND PATH CONTENT_TYPE DATA posts one request and classifies its status.
send() {
  local code=$(curl -s -m 10 -o "$BODY" -w '%{http_code}' -H "Content-Type: $3" --data-binary "$4" "$URL$2")
  case $code in
    2??) tally[$1:2xx]+=1 ;;
    429 | 503) tally[$1:shed]+=1 ;;
    4??) tally[$1:$code]+=1 ;;
    *) tally[$1:FAIL]+=1; echo "FAIL: $1 -> $code: $(head -c 300 "$BODY")" >&2 ;;
  esac
}
match() { echo "MATCH (g:Country name=Country_$1)-[product]->(c:Automobile) TARGET c"; }
JSON=application/json
PLAN=$(curl -sf -H "Content-Type: $JSON" -d "{\"query\": \"AVG(price) $(match 0)\"}" "$URL/v1/prepare" |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$PLAN" ] || { echo "FAIL: POST /v1/prepare returned no plan id" >&2; exit 1; }
end=$((SECONDS + DURATION))
for ((n = 0; SECONDS < end; n++)); do
  m=$(match $((n % 3)))
  send query /v1/query $JSON "{\"query\": \"AVG(price) $m\", \"error_bound\": 0.1, \"timeout_ms\": 2000}"
  send query /v1/query $JSON "{\"query\": \"COUNT(*) $m\", \"error_bound\": 0.15, \"timeout_ms\": 2000}"
  send multi /v1/query $JSON "{\"query\": \"COUNT(*) $m\", \"timeout_ms\": 2000, \"aggregates\": [{\"func\": \"COUNT\"}, {\"func\": \"AVG\", \"attr\": \"price\", \"error_bound\": 0.15}]}"
  send plan_query "/v1/plans/$PLAN/query" $JSON '{"error_bound": 0.1, "timeout_ms": 2000}'
  car=Smoke_$$_$n
  send mutate /v1/mutate application/x-ndjson "{\"op\":\"add_entity\",\"entity\":\"$car\",\"types\":[\"Automobile\"]}
{\"op\":\"add_edge\",\"src\":\"Country_$((n % 3))\",\"pred\":\"product\",\"dst\":\"$car\"}
{\"op\":\"set_attr\",\"entity\":\"$car\",\"attr\":\"price\",\"value\":$((20000 + RANDOM % 60000))}"
done
failed=0 completed=0
for k in $(printf '%s\n' "${!tally[@]}" | sort); do
  echo "$k ${tally[$k]}"
  case $k in *:FAIL) failed=$((failed + ${tally[$k]})) ;; *:2xx) completed=$((completed + ${tally[$k]})) ;; esac
done
echo "smoke-load $URL: $n rounds, $completed completed, $failed failed"
[ "$failed" -eq 0 ] && [ "$completed" -gt 0 ]
