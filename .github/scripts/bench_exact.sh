#!/bin/sh
# The one benchmark gate CI can hold without flaking. On all five workloads
# loss and peak_device_bytes are pure functions of the seed
# (benchmark/aa.go's repeatsExactly), so head must reproduce base's values
# to the last digit. That includes the serving ledger peak: it is the
# model's parameters (serving charges nothing else), whatever the
# request trace and however two concurrent clients happened to be batched.
# The serving workloads also carry the in-run check "served scores equal
# solo inference bitwise" (correct). No timing is compared: timing verdicts
# come only from paired alternating runs of two binaries (benchmark/README.md).
set -eu
[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$1" | tar -x -C "$base"

# run DIR WORKLOAD prints the final JSON line of one short untraced run.
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$2" --seed 1 --seconds 2 --trace 0 | tail -n 1)
}
# field JSON METRIC prints metrics.METRIC.value.
field() {
	printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

status=0
for w in train_compute train_planned train_outofcore serve_hot serve_uniform; do
	b=$(run "$base" "$w")
	h=$(run "$PWD" "$w")
	printf '%s\n' "$h" | grep -q '^{"correct":true,' || { echo "$w: head run failed its checks: $h"; status=1; }
	for m in loss peak_device_bytes; do
		bv=$(field "$b" "$m")
		hv=$(field "$h" "$m")
		echo "$w $m $bv $hv"
		[ -n "$bv" ] && [ "$bv" = "$hv" ] || { echo "$w: $m differs from base"; status=1; }
	done
done
exit $status
