#!/bin/sh
# Analyzer regression smoke: prove the gate actually catches the
# regressions it exists for, not just that it exits zero today.
# Injects five defects into the working tree — a deleted pool Release
# (a buffer leak on an error path), an unwired protocol opcode, a write
# whose failed-data path skips finishing its size publish (the round's
# control slots stay held and wedge the next fan), a serve path that
# skips landing a write's separate payload (its receive is never
# collected and its frames are installed unchecked or leak), and a
# client wait on a reply that drops its deadline (a dead server blocks
# it forever) — and requires the analyzer to fail on each. A sixth,
# which no analyzer can see, must fail a tier-1 test instead: a server
# that posts one receive for a write whose payload follows in pieces
# (it ignores the piece mark), so the write is refused and its later
# pieces strand. A seventh must fail a tier-1 test too: a readmission
# that skips its view's fence, so another client's extending writes
# race the re-image and the returning server holds wrong bytes. An
# eighth must fail a tier-1 test as well: a read target that ignores
# the read slices, so the primary serves every slice of a stripe and
# its other replica none. A ninth must fail a tier-1 test too: a resync
# journal that appends every dirty range instead of merging it, so a
# stripe rewritten while its server was out is copied back once per
# rewrite. A tenth must fail a tier-1 test too: a membership change
# that skips its fenced re-copy of the dirty set, so a write that lands
# after the bulk copy read its stripe never reaches the joiner. An
# eleventh must fail a tier-1 test too: read slices that ignore the
# exclusion set and stay the even cuts, so the members next to an
# excluded server read its share and the rest of its chain none of it.
# A twelfth must fail a tier-1 test too: an MX endpoint that recycles a
# released request without clearing its charged flag, so the request's
# next completion is never charged and a ping-pong that releases its
# Ops ends earlier than one that does not. A thirteenth must fail a
# tier-1 test too: a NIC that skips its fw-recv step, so the per-message
# trace loses every receive line. A fourteenth must fail a tier-1 test
# too: a GM port whose CancelRecv withdraws the oldest posted receive of
# its tag instead of the newest, so the next message lands in the
# receive meant to be withdrawn. A fifteenth must fail a tier-1 test
# too: a simulated cost constant that no anchor test pins (the sockets
# layer's per-message MX overhead) nudged by 10 ns without regenerating
# EXPERIMENTS.md, so the figures it moves no longer match their blocks.
# Then it restores the tree byte-for-byte from backups (no git
# operations, safe on a dirty tree).
set -eu

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"

victim=internal/sockets/gmsock.go
publisher=internal/rfsrv/cluster.go
server=internal/rfsrv/server.go
waiter=internal/rfsrv/client.go
reinstater=internal/rfsrv/elastic.go
placer=internal/rfsrv/placement.go
journal=internal/rfsrv/journal.go
endpoint=internal/mx/mx.go
nic=internal/hw/nic.go
port=internal/gm/gm.go
params=internal/hw/params.go
record=EXPERIMENTS.md
injected=internal/rfsrv/zz_smoke_injected.go

tmp="$(mktemp -d)"
restore() {
	cp "$tmp/gmsock.go.bak" "$victim"
	cp "$tmp/cluster.go.bak" "$publisher"
	cp "$tmp/server.go.bak" "$server"
	cp "$tmp/client.go.bak" "$waiter"
	cp "$tmp/elastic.go.bak" "$reinstater"
	cp "$tmp/placement.go.bak" "$placer"
	cp "$tmp/journal.go.bak" "$journal"
	cp "$tmp/mx.go.bak" "$endpoint"
	cp "$tmp/nic.go.bak" "$nic"
	cp "$tmp/gm.go.bak" "$port"
	cp "$tmp/params.go.bak" "$params"
	cp "$tmp/EXPERIMENTS.md.bak" "$record"
	rm -f "$injected"
	rm -rf "$tmp"
}
trap restore EXIT
cp "$victim" "$tmp/gmsock.go.bak"
cp "$publisher" "$tmp/cluster.go.bak"
cp "$server" "$tmp/server.go.bak"
cp "$waiter" "$tmp/client.go.bak"
cp "$reinstater" "$tmp/elastic.go.bak"
cp "$placer" "$tmp/placement.go.bak"
cp "$journal" "$tmp/journal.go.bak"
cp "$endpoint" "$tmp/mx.go.bak"
cp "$nic" "$tmp/nic.go.bak"
cp "$port" "$tmp/gm.go.bak"
cp "$params" "$tmp/params.go.bak"
cp "$record" "$tmp/EXPERIMENTS.md.bak"

run_analyzer() { go run ./tools/analyze ./... 2>&1; }

echo "smoke: clean tree must pass"
if ! out="$(run_analyzer)"; then
	echo "$out"
	echo "smoke: FAIL — analyzer not clean before injection"
	exit 1
fi

echo "smoke: deleted pool Release must fail poolpair"
sed -i '/^\t\ttx\.Release()$/d' "$victim"
if cmp -s "$victim" "$tmp/gmsock.go.bak"; then
	echo "smoke: FAIL — injection did not change $victim (site moved?)"
	exit 1
fi
if out="$(run_analyzer)"; then
	echo "smoke: FAIL — analyzer passed with a deleted Release"
	exit 1
fi
if ! echo "$out" | grep -q '\[poolpair\]'; then
	echo "$out"
	echo "smoke: FAIL — analyzer failed but reported no poolpair finding"
	exit 1
fi
cp "$tmp/gmsock.go.bak" "$victim"

echo "smoke: unwired opcode must fail opexhaustive"
cat >"$injected" <<'EOF'
package rfsrv

// OpSmokeInjected is a deliberately unwired opcode injected by the
// analyzer regression smoke (tools/analyze/smoke.sh); it never lands
// in the tree.
const OpSmokeInjected Op = 250
EOF
if out="$(run_analyzer)"; then
	echo "smoke: FAIL — analyzer passed with an unwired opcode"
	exit 1
fi
if ! echo "$out" | grep -q '\[opexhaustive\]'; then
	echo "$out"
	echo "smoke: FAIL — analyzer failed but reported no opexhaustive finding"
	exit 1
fi
rm -f "$injected"

echo "smoke: unfinished size publish must fail poolpair"
sed -i 's/^\t\treturn resp, cl\.finishPublish(p, pub, err)$/\t\treturn resp, err/' "$publisher"
if cmp -s "$publisher" "$tmp/cluster.go.bak"; then
	echo "smoke: FAIL — injection did not change $publisher (site moved?)"
	exit 1
fi
if out="$(run_analyzer)"; then
	echo "smoke: FAIL — analyzer passed with an unfinished size publish"
	exit 1
fi
if ! echo "$out" | grep -q '\[poolpair\].*startPublish'; then
	echo "$out"
	echo "smoke: FAIL — analyzer failed but reported no poolpair finding on startPublish"
	exit 1
fi
cp "$tmp/cluster.go.bak" "$publisher"

echo "smoke: serve skipping landPayload must fail poolpair"
sed -i '/^\ts\.landPayload(p, w)$/d' "$server"
if cmp -s "$server" "$tmp/server.go.bak"; then
	echo "smoke: FAIL — injection did not change $server (site moved?)"
	exit 1
fi
if out="$(run_analyzer)"; then
	echo "smoke: FAIL — analyzer passed with a serve path that skips landPayload"
	exit 1
fi
if ! echo "$out" | grep -q '\[poolpair\].*postPayload'; then
	echo "$out"
	echo "smoke: FAIL — analyzer failed but reported no poolpair finding on postPayload"
	exit 1
fi
cp "$tmp/server.go.bak" "$server"

echo "smoke: a server ignoring the piece mark must fail a tier-1 test"
sed -i 's/^\ts\.pieceOps(p, t, w, w\.vec, max(k, 1), true)$/\ts.pieceOps(p, t, w, w.vec, 1, true)/' "$server"
if cmp -s "$server" "$tmp/server.go.bak"; then
	echo "smoke: FAIL — injection did not change $server (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestKernelWriteStaysEager$' ./internal/rfsrv 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with a server that posts one receive for a pieced write"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestKernelWriteStaysEager'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestKernelWriteStaysEager"
	exit 1
fi
cp "$tmp/server.go.bak" "$server"

echo "smoke: a readmission without its view's fence must fail a tier-1 test"
sed -i '/^\tcl\.view\.fence(p, cl)$/d' "$reinstater"
if cmp -s "$reinstater" "$tmp/elastic.go.bak"; then
	echo "smoke: FAIL — injection did not change $reinstater (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestReinstateFencesForeignExtends$' ./internal/rfsrv 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with an unfenced readmission"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestReinstateFencesForeignExtends'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestReinstateFencesForeignExtends"
	exit 1
fi
cp "$tmp/elastic.go.bak" "$reinstater"

echo "smoke: a read target ignoring the read slices must fail a tier-1 test"
sed -i 's/^\trank, _ := cl\.pl\.reader(cl\.down, lay, off)$/\trank := 0/' "$publisher"
if cmp -s "$publisher" "$tmp/cluster.go.bak"; then
	echo "smoke: FAIL — injection did not change $publisher (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestReadSlicesSpreadAStripe$' ./internal/rfsrv 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with every slice read from the primary"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestReadSlicesSpreadAStripe'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestReadSlicesSpreadAStripe"
	exit 1
fi
cp "$tmp/cluster.go.bak" "$publisher"

echo "smoke: a journal appending overlapping dirty ranges must fail a tier-1 test"
sed -i 's/^\td\.ranges\[ino\] = slices\.Replace(rs, lo, hi, r)$/\td.ranges[ino] = slices.Replace(rs, len(rs), len(rs), dirtyRange{off: off, n: n})/' "$journal"
if cmp -s "$journal" "$tmp/journal.go.bak"; then
	echo "smoke: FAIL — injection did not change $journal (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestReinstateCopiesEachMissedByteOnce$' ./internal/rfsrv 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with a journal that never merges its dirty ranges"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestReinstateCopiesEachMissedByteOnce'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestReinstateCopiesEachMissedByteOnce"
	exit 1
fi
cp "$tmp/journal.go.bak" "$journal"

echo "smoke: a membership change skipping its fenced dirty-set copy must fail a tier-1 test"
sed -i 's/^\tif err := v\.dirty\.each(func(ino kernel\.InodeID, r dirtyRange) error {$/\tif err := (\&dirtySet{}).each(func(ino kernel.InodeID, r dirtyRange) error {/' "$reinstater"
if cmp -s "$reinstater" "$tmp/elastic.go.bak"; then
	echo "smoke: FAIL — injection did not change $reinstater (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestElasticJoinRecopiesWriteInFlightAtStart$' ./internal/rfsrv 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with a membership change that never re-copies its dirty set"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestElasticJoinRecopiesWriteInFlightAtStart'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestElasticJoinRecopiesWriteInFlightAtStart"
	exit 1
fi
cp "$tmp/elastic.go.bak" "$reinstater"

echo "smoke: read slices ignoring the exclusion set must fail a tier-1 test"
sed -i 's/^\tif c, ok := pl\.chainCut(down, /\tif c, ok := pl.chainCut(nil, /' "$placer"
if cmp -s "$placer" "$tmp/placement.go.bak"; then
	echo "smoke: FAIL — injection did not change $placer (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestReadSlicesBalanceAroundAnExclusion$' ./internal/rfsrv 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with read slices that ignore the exclusion set"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestReadSlicesBalanceAroundAnExclusion'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestReadSlicesBalanceAroundAnExclusion"
	exit 1
fi
cp "$tmp/placement.go.bak" "$placer"

echo "smoke: an MX request recycled without clearing charged must fail a tier-1 test"
sed -i 's/^\t\t\*req = Request{ep: ep, extents: req\.extents\[:0\], fire: req\.fire}$/\t\t*req = Request{ep: ep, extents: req.extents[:0], fire: req.fire, charged: req.charged}/' "$endpoint"
if cmp -s "$endpoint" "$tmp/mx.go.bak"; then
	echo "smoke: FAIL — injection did not change $endpoint (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestConformanceRelease$' ./internal/fabric 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with requests recycled still charged"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestConformanceRelease'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestConformanceRelease"
	exit 1
fi
cp "$tmp/mx.go.bak" "$endpoint"

echo "smoke: a NIC skipping its fw-recv step must fail a tier-1 test"
sed -i '/^\t\tn\.step("fw-recv", m, -1)$/d' "$nic"
if cmp -s "$nic" "$tmp/nic.go.bak"; then
	echo "smoke: FAIL — injection did not change $nic (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestProbeTraceLines$' ./internal/fabric 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with a NIC that never reports fw-recv"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestProbeTraceLines'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestProbeTraceLines"
	exit 1
fi
cp "$tmp/nic.go.bak" "$nic"

echo "smoke: a GM CancelRecv withdrawing the oldest receive must fail a tier-1 test"
sed -i 's/^\tfor i := len(pt\.posted) - 1; i >= 0; i-- {$/\tfor i := 0; i < len(pt.posted); i++ {/' "$port"
if cmp -s "$port" "$tmp/gm.go.bak"; then
	echo "smoke: FAIL — injection did not change $port (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestCancelRecvWithdrawsNewest$' ./internal/gm 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with a CancelRecv that withdraws the oldest receive"
	exit 1
fi
if ! echo "$out" | grep -q -- '--- FAIL: TestCancelRecvWithdrawsNewest'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not TestCancelRecvWithdrawsNewest"
	exit 1
fi
cp "$tmp/gm.go.bak" "$port"

echo "smoke: a cost constant changed without regenerating EXPERIMENTS.md must fail a tier-1 test"
sed -i 's/^\t\tSockMXOverhead: 600 \* ns,$/\t\tSockMXOverhead: 610 * ns,/' "$params"
if cmp -s "$params" "$tmp/params.go.bak"; then
	echo "smoke: FAIL — injection did not change $params (site moved?)"
	exit 1
fi
if out="$(go test -count=1 -run '^TestExperimentsMatchRegistry$' ./tools/experiments 2>&1)"; then
	echo "smoke: FAIL — tier-1 tests passed with figures that no longer match EXPERIMENTS.md"
	exit 1
fi
if ! echo "$out" | grep -q 'block fig8a differs'; then
	echo "$out"
	echo "smoke: FAIL — the tests failed, but not on the fig8a block"
	exit 1
fi
cp "$tmp/params.go.bak" "$params"
cp "$tmp/EXPERIMENTS.md.bak" "$record"

echo "smoke: untimed reply wait must fail boundedwait"
sed -i 's/^\tst, ok = fabric\.WaitTimeout(p, op, d)$/\tst, ok = op.Wait(p), true/' "$waiter"
if cmp -s "$waiter" "$tmp/client.go.bak"; then
	echo "smoke: FAIL — injection did not change $waiter (site moved?)"
	exit 1
fi
if out="$(run_analyzer)"; then
	echo "smoke: FAIL — analyzer passed with an untimed reply wait"
	exit 1
fi
if ! echo "$out" | grep -q '\[boundedwait\]'; then
	echo "$out"
	echo "smoke: FAIL — analyzer failed but reported no boundedwait finding"
	exit 1
fi
cp "$tmp/client.go.bak" "$waiter"

echo "smoke: PASS"
