// Package rfsrv implements the ORFA/ORFS remote file-access protocol
// (§3.1): a request/response protocol between a client (user-space
// ORFA library or in-kernel ORFS filesystem) and a file server backed
// by memfs.
//
// The protocol is transport-neutral and there is one protocol endpoint,
// FabricClient (NewMXClient and NewGMClient only pick its transport),
// which puts a request on the wire and retires it; the clients are the
// Session over one endpoint and the Cluster over several. The
// endpoint's capability branches embody the paper's comparison:
//
//   - Over MX it uses the kernel interface directly: vectorial,
//     address-typed requests; write data rides in the request message
//     while that message stays eager, and follows it into fresh server
//     frames above that; read data lands zero-copy in physically
//     addressed kernel memory (page-cache frames, kernel buffers). Data
//     of kernel memory that one eager message cannot carry travels in
//     eager pieces (pieces) into receives posted before they can
//     arrive — a read's by the client before it asks, a write's by the
//     server as it admits the header — and user buffers MX pins for a
//     rendezvous above the eager limit; waits are per-request.
//   - Over GM it has to assemble the same functionality out of GM's
//     primitives: everything it touches must be registered (a GMKRC
//     registration cache handles user buffers), there are no vectors
//     (header and data travel as separate messages), and completions
//     come from the port's unique event queue via a blocking wait that
//     costs a dispatch-thread hop (§5.3).
//
// The asymmetry between the two branches *is* the paper's point; the
// measured gap in ORFS throughput (Fig 7) follows from it.
package rfsrv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"

	"repro/internal/core"
)

// Op is a protocol operation code.
type Op uint8

// Protocol operations.
const (
	OpLookup Op = iota + 1
	OpGetattr
	OpReaddir
	OpCreate
	OpMkdir
	OpUnlink
	OpRmdir
	OpTruncate
	OpRead
	OpWrite
	// OpSetSize is the size-coherence operation (it replaced the
	// grow-only OpExtend at the same opcode). Off is the target size;
	// Len packs a mode bit and the writer's observed size epoch (see
	// PackSetSize). In grow mode the server applies size = max(size,
	// Off) and never bumps the inode's size epoch — idempotent and safe
	// to replay in any order, the property the striped cluster client
	// relies on when it reconciles file sizes across servers after a
	// write whose tail stripe landed away from the metadata home. In
	// exact mode the server applies size = Off (grow or shrink) and
	// always bumps the epoch — the cluster's truncate. Either mode is
	// rejected with StStale when the observed epoch is behind, with the
	// reply carrying the authoritative (size, epoch) so one round trip
	// revalidates the caller (see Cluster).
	OpSetSize
	// The opcode after OpSetSize is retired (it flipped a file's layout
	// class, which is now fixed at create): a request carrying it is an
	// unknown op.
	_
	// OpLink enters an existing inode into a directory under a new name
	// without minting anything: Off carries the child inode, Len its
	// FileKind and layout class (PackNode). It is the replication verb
	// of the sharded namespace (copying a fresh dentry to the owner
	// group's replicas) and the commit half of the two-phase rename.
	// Linking the same child under the same name twice is an idempotent
	// success.
	OpLink
	// OpMaterialize ensures the server holds an object for the inode
	// (Len carries the FileKind of the stub to create if it does not).
	// Sharded clusters use it to place a freshly minted directory at
	// its routing owner group, which generally differs from the group
	// that owns the parent's dentry.
	OpMaterialize
	// OpScrub frees the server's object for a dead inode, dangling
	// names tolerated — the lazy space-reclamation fan that follows a
	// sharded unlink. Len bit 0 set turns it into the rmdir emptiness
	// check: the object must be an empty directory (or absent) and is
	// only scrubbed then.
	OpScrub
	// OpRenamePrepare / OpRenameFinalize / OpRenameAbort are the
	// source-side phases of the cross-owner rename (DESIGN.md §11).
	// Prepare marks (Ino, Name) as renaming toward the destination
	// directory in Off and returns the child's attributes; a marked
	// entry refuses unlinks and conflicting prepares with StBusy until
	// finalized or aborted. Finalize (child in Off) detaches the source
	// entry and clears the mark; Abort just clears the mark. All three
	// are idempotent so an in-doubt client can re-drive them.
	OpRenamePrepare
	OpRenameFinalize
	OpRenameAbort
	// OpRenameLocal is the one-home rename: source dir in Ino,
	// destination dir in Off, and Name carrying both names separated by
	// a NUL (PackRenameNames). Used whole when source and destination
	// share an owner group, and by unsharded replicated clusters and
	// single-server sessions, where every server can apply it locally.
	OpRenameLocal
	// OpMember commits a new membership view on a server (DESIGN.md
	// §13): Off carries the new membership epoch, Len the server's
	// placement position/count/replication packed by PackMember, and —
	// in sharded mode — Ino carries the mint floor every server must
	// raise its inode cursor past so inodes minted under the new
	// geometry can never collide with ones minted under the old.
	OpMember
	// OpExport reads the server's namespace image (image.go): shaped
	// like a read, the image is the data message — at most Len bytes,
	// the room the client posted — and the reply's N its length.
	OpExport
	// OpImport writes a namespace image to the server: shaped like a
	// write, the Len-byte image is the payload. The server decodes it
	// whole, then applies it, or stages it for the OpMember of the epoch
	// the image names.
	OpImport
)

//analyze:dispatch ops
var opNames = map[Op]string{
	OpLookup: "lookup", OpGetattr: "getattr", OpReaddir: "readdir",
	OpCreate: "create", OpMkdir: "mkdir", OpUnlink: "unlink",
	OpRmdir: "rmdir", OpTruncate: "truncate", OpRead: "read", OpWrite: "write",
	OpSetSize: "setsize", OpLink: "link",
	OpMaterialize: "materialize", OpScrub: "scrub",
	OpRenamePrepare: "renameprepare", OpRenameFinalize: "renamefinalize",
	OpRenameAbort: "renameabort", OpRenameLocal: "renamelocal",
	OpMember: "member",
	OpExport: "export", OpImport: "import",
}

// readShaped reports whether op's reply carries data as its own message
// ahead of the header (OpRead, OpExport); writeShaped whether a payload
// follows its head, inline or alone (OpWrite, OpImport). Neither kind
// is ever packed behind another request.
//
// allocfree
func readShaped(op Op) bool { return op == OpRead || op == OpExport }

// allocfree
func writeShaped(op Op) bool { return op == OpWrite || op == OpImport }

// PackMember builds the Len field of an OpMember request: the server's
// position in the new placement order (7 bits; the count itself for a
// retiree, which holds no position), the new member count
// (7 bits), the replication factor (7 bits), and a sharded-geometry
// flag telling the server to swap its §11 ownership map and minting
// partition along with the epoch.
func PackMember(pos, n, r int, sharded bool) uint32 {
	l := uint32(pos&0x7f) | uint32(n&0x7f)<<7 | uint32(r&0x7f)<<14
	if sharded {
		l |= 1 << 21
	}
	return l
}

// UnpackMember is the inverse of PackMember.
func UnpackMember(l uint32) (pos, n, r int, sharded bool) {
	return int(l & 0x7f), int(l >> 7 & 0x7f), int(l >> 14 & 0x7f), l&(1<<21) != 0
}

// ScrubRequireEmptyDir is the OpScrub Len bit that turns the scrub
// into the sharded rmdir's emptiness check-and-remove: the inode must
// be an absent or empty directory.
const ScrubRequireEmptyDir = 1

// PackRenameNames joins an OpRenameLocal's source and destination
// names into the request's single Name field (NUL-separated; NUL
// cannot occur in a component).
func PackRenameNames(src, dst string) string { return src + "\x00" + dst }

// SplitRenameNames is the inverse of PackRenameNames.
func SplitRenameNames(packed string) (src, dst string, ok bool) {
	for i := 0; i < len(packed); i++ {
		if packed[i] == 0 {
			return packed[:i], packed[i+1:], true
		}
	}
	return "", "", false
}

// LayoutClass is a file's stripe-layout class (DESIGN.md §10), fixed
// when the file is created by the creator's hint in OpCreate's Len and
// recorded by the servers that home the inode. It rides the wire in
// bytes that were previously always zero — the high nibble of the
// reply's kind byte and the low byte of a create's Len — so the class
// changed no message length and no fault-free timing.
type LayoutClass uint8

const (
	// LayoutStandard stripes at the cluster's configured width (64 KiB
	// by default), round-robin — what every unhinted create gets.
	LayoutStandard LayoutClass = iota
	// LayoutWhole places all of a small file's data on its home, the
	// group that also answers its getattr: no fan-out, no grow-only
	// OpSetSize reconciliation (the home is the size authority AND the
	// only data server).
	LayoutWhole

	layoutMax = LayoutWhole

	// layoutUnknown is the reply nibble of a sharded server that does
	// not home the inode: the stub it may hold (size fans materialize
	// one everywhere) knows no class, and a client learns nothing from
	// it.
	layoutUnknown LayoutClass = 0xf
)

var layoutNames = [...]string{"standard", "whole"}

// String returns the layout's protocol name.
func (lc LayoutClass) String() string {
	if int(lc) < len(layoutNames) {
		return layoutNames[lc]
	}
	return fmt.Sprintf("layout(%d)", uint8(lc))
}

// ValidLayout reports whether lc is a defined layout class (servers
// refuse a create hinting a class outside the range with StInval
// instead of recording garbage).
func ValidLayout(lc LayoutClass) bool { return lc <= layoutMax }

// PackNode builds the Len of a request that makes or links a node: the
// layout class in the low byte, the verb's argument above it — the
// routing residue + 1 of a sharded create or mkdir (0: the minter's
// default, all an unsharded create carries), the FileKind of an
// OpLink.
func PackNode(arg int, lc LayoutClass) uint32 { return uint32(arg)<<8 | uint32(lc) }

// UnpackNode splits a node request's Len into its argument and layout
// class (see PackNode).
func UnpackNode(l uint32) (arg int, lc LayoutClass) { return int(l >> 8), LayoutClass(l) }

// String returns the protocol name of the operation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Req is a protocol request. Ino 0 denotes the filesystem root.
type Req struct {
	Op  Op
	Seq uint64
	EP  uint8 // client endpoint/port to reply to
	Ino kernel.InodeID
	Off int64 // offset (read/write) or new size (truncate/setsize)
	// Len is the read/write byte count; OpSetSize packs mode+epoch here
	// (PackSetSize); OpCreate, OpMkdir and OpLink pack a LayoutClass with
	// their argument (PackNode; an unhinted, unsharded create's Len is
	// zero, as it always was).
	Len  uint32
	Name string // lookup/create/mkdir/unlink/rmdir
}

// setSizeExactBit marks an OpSetSize request as an exact set (shrink
// allowed, epoch bumped) rather than a grow-only reconciliation.
const setSizeExactBit = 1 << 31

// SetSizeEpochMask selects the observed-epoch bits of an OpSetSize
// request's Len field: the writer's size epoch truncated to 31 bits.
// Replies carry full 64-bit epochs; the request-side truncation is a
// staleness check by equality, valid over any realistic epoch window.
const SetSizeEpochMask = 1<<31 - 1

// MemberEpochShift positions the membership-view epoch inside the
// 64-bit reply epoch slot: the top 16 bits carry the member epoch, the
// low 48 the inode's size epoch (Resp.MemberEpoch).
const MemberEpochShift = 48

// SizeEpochMask selects the size-epoch bits of the reply epoch slot.
const SizeEpochMask = 1<<MemberEpochShift - 1

// PackSetSize builds the Len field of an OpSetSize request from the
// mode and the writer's observed size epoch. The epoch rides in the
// request so the server can refuse to act on a stale view of the file
// (StStale) instead of silently re-growing sizes a foreign truncate
// just cut.
func PackSetSize(exact bool, epoch uint64) uint32 {
	l := uint32(epoch & SetSizeEpochMask)
	if exact {
		l |= setSizeExactBit
	}
	return l
}

// UnpackSetSize splits an OpSetSize request's Len field into the mode
// and the observed epoch (truncated to 31 bits, see SetSizeEpochMask).
func UnpackSetSize(l uint32) (exact bool, epoch uint32) {
	return l&setSizeExactBit != 0, l & SetSizeEpochMask
}

// reqFixed is the fixed-size prefix of an encoded request.
const reqFixed = 1 + 8 + 1 + 8 + 8 + 4 + 2

// MaxNameLen is the longest name one request can carry: a component
// must fit the 4 KB request buffer alongside the fixed header. Clients
// validate at the API boundary (ValidateReq) so an oversized name
// surfaces as StNameTooLong instead of a panic deep in Encode.
const MaxNameLen = reqBufSize - reqFixed

// Client-boundary validation errors (each maps to a wire status).
var (
	ErrNameTooLong = errors.New("rfsrv: name too long")
	ErrInval       = errors.New("rfsrv: invalid argument")
	// ErrStaleEpoch is StStale as an error: an OpSetSize carried an
	// observed size epoch behind the server's. The paired reply holds
	// the authoritative (size, epoch) for revalidation.
	ErrStaleEpoch = errors.New("rfsrv: stale size epoch")
	// ErrBusy is StBusy as an error: the directory entry is marked by
	// an unfinished rename and refuses conflicting mutations.
	ErrBusy = errors.New("rfsrv: entry busy in rename")
	// ErrNotOwner is StNotOwner as an error: the mutation reached a
	// sharded server outside the directory's owner group.
	ErrNotOwner = errors.New("rfsrv: not the namespace owner")
	// ErrRenameInDoubt is the sentinel every RenameInDoubtError matches
	// (errors.Is): a cross-owner rename lost contact with one of its
	// two owner groups between prepare and finalize, so the client
	// cannot know which of the two legal outcomes the namespace holds.
	// Re-driving the same rename once the groups are reachable resolves
	// it — every phase is idempotent.
	ErrRenameInDoubt = errors.New("rfsrv: rename in doubt")
	// ErrStaleMembership reports that a reply carried a membership-view
	// epoch newer than the client adopted: a change ran on a MemberView
	// the client does not follow, its routing is wrong for the
	// cluster's current geometry, and every further operation is
	// refused (DESIGN.md §13).
	ErrStaleMembership = errors.New("rfsrv: membership view is stale")
)

// RenameInDoubtError reports a cross-owner rename whose outcome the
// client could not learn: the prepare succeeded, and then either the
// commit's fate or the finalize's fate was lost to a fault. The
// namespace is guaranteed to be in one of exactly two legal states —
// the entry at its source (rename never committed) or at its
// destination (committed, source cleanup pending or done) — never
// both visible, never neither. It unwraps to the underlying fault and
// matches ErrRenameInDoubt.
type RenameInDoubtError struct {
	SrcDir  kernel.InodeID
	SrcName string
	DstDir  kernel.InodeID
	DstName string
	Err     error // the fault that interrupted the protocol
}

// Error implements error.
func (e *RenameInDoubtError) Error() string {
	return fmt.Sprintf("rfsrv: rename %d/%s -> %d/%s in doubt: %v",
		e.SrcDir, e.SrcName, e.DstDir, e.DstName, e.Err)
}

// Unwrap exposes the interrupting fault to errors.Is/As.
func (e *RenameInDoubtError) Unwrap() error { return e.Err }

// Is matches the ErrRenameInDoubt sentinel.
func (e *RenameInDoubtError) Is(target error) bool { return target == ErrRenameInDoubt }

// ValidateReq checks a request at the client API boundary: oversized
// names and negative offsets are protocol violations that must be
// reported as statuses, not crash the simulation in EncodeReq or be
// shipped to the server to clip silently.
func ValidateReq(r *Req) error {
	if len(r.Name) > MaxNameLen {
		return ErrNameTooLong
	}
	if r.Off < 0 {
		return ErrInval
	}
	return nil
}

// EncodeReq serializes a request into a fresh slice.
func EncodeReq(r *Req) []byte {
	return EncodeReqInto(nil, r)
}

// EncodeReqInto appends the encoding of r to dst and returns the
// extended slice — the hot data path encodes into per-client scratch
// buffers instead of allocating per request.
//
// allocfree
func EncodeReqInto(dst []byte, r *Req) []byte {
	if len(r.Name) > 1<<15 {
		panic("rfsrv: name too long")
	}
	pos := len(dst)
	dst = append(dst, make([]byte, reqFixed+len(r.Name))...)
	out := dst[pos:]
	out[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(out[1:], r.Seq)
	out[9] = r.EP
	binary.LittleEndian.PutUint64(out[10:], uint64(r.Ino))
	binary.LittleEndian.PutUint64(out[18:], uint64(r.Off))
	binary.LittleEndian.PutUint32(out[26:], r.Len)
	binary.LittleEndian.PutUint16(out[30:], uint16(len(r.Name)))
	copy(out[reqFixed:], r.Name)
	return dst
}

// DecodeReq parses a request, returning it and the number of bytes
// consumed (the remainder of the buffer is inline write data).
func DecodeReq(b []byte) (*Req, int, error) {
	r := new(Req)
	n, err := DecodeReqInto(b, r)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// DecodeReqInto is DecodeReq into r, which it overwrites whole on
// success and leaves alone on an error: the server decodes each request
// into its work record instead of allocating one.
func DecodeReqInto(b []byte, r *Req) (int, error) {
	if len(b) < reqFixed {
		return 0, fmt.Errorf("rfsrv: short request (%d bytes)", len(b))
	}
	nameLen := int(binary.LittleEndian.Uint16(b[30:]))
	if nameLen > MaxNameLen {
		// No request buffer holds it, and EncodeReqInto would refuse it.
		return 0, fmt.Errorf("rfsrv: %d-byte name exceeds the request buffer", nameLen)
	}
	if len(b) < reqFixed+nameLen {
		return 0, fmt.Errorf("rfsrv: truncated name")
	}
	*r = Req{
		Op:   Op(b[0]),
		Seq:  binary.LittleEndian.Uint64(b[1:]),
		EP:   b[9],
		Ino:  kernel.InodeID(binary.LittleEndian.Uint64(b[10:])),
		Off:  int64(binary.LittleEndian.Uint64(b[18:])),
		Len:  binary.LittleEndian.Uint32(b[26:]),
		Name: string(b[reqFixed : reqFixed+nameLen]),
	}
	return reqFixed + nameLen, nil
}

// Status codes.
const (
	StOK int32 = iota
	StNotFound
	StExists
	StNotDir
	StIsDir
	StNotEmpty
	StBadOffset
	StIO
	StNameTooLong
	StInval
	// StStale rejects an OpSetSize whose observed size epoch is behind
	// the server's: the writer's cached view of the file's size is no
	// longer valid. The reply carries the authoritative (size, epoch),
	// so the writer revalidates and retries in one round trip.
	StStale
	// StBusy rejects a mutation of a directory entry that is marked by
	// an in-flight rename prepare: the entry is in transit between two
	// owner groups and must not be unlinked or re-prepared toward a
	// different destination until the rename finalizes or aborts.
	StBusy
	// StNotOwner rejects a namespace mutation sent to a sharded server
	// that does not own the directory's slice of the namespace — a
	// routing bug on the client, never a retryable condition.
	StNotOwner
	// StTooLarge refuses a namespace image that does not fit one message
	// (ErrImageTooLarge).
	StTooLarge
)

// StatusOf maps a filesystem error to a wire status.
func StatusOf(err error) int32 {
	switch err {
	case nil:
		return StOK
	case kernel.ErrNotFound:
		return StNotFound
	case kernel.ErrExists:
		return StExists
	case kernel.ErrNotDir:
		return StNotDir
	case kernel.ErrIsDir:
		return StIsDir
	case kernel.ErrNotEmpty:
		return StNotEmpty
	case kernel.ErrBadOffset:
		return StBadOffset
	case ErrNameTooLong:
		return StNameTooLong
	case ErrInval:
		return StInval
	case ErrStaleEpoch:
		return StStale
	case ErrBusy:
		return StBusy
	case ErrNotOwner:
		return StNotOwner
	case ErrImageTooLarge:
		return StTooLarge
	default:
		return StIO
	}
}

// ErrOf maps a wire status back to a filesystem error.
func ErrOf(st int32) error {
	//analyze:dispatch statuses
	switch st {
	case StOK:
		return nil
	case StNotFound:
		return kernel.ErrNotFound
	case StExists:
		return kernel.ErrExists
	case StNotDir:
		return kernel.ErrNotDir
	case StIsDir:
		return kernel.ErrIsDir
	case StNotEmpty:
		return kernel.ErrNotEmpty
	case StBadOffset:
		return kernel.ErrBadOffset
	case StNameTooLong:
		return ErrNameTooLong
	case StInval:
		return ErrInval
	case StStale:
		return ErrStaleEpoch
	case StBusy:
		return ErrBusy
	case StNotOwner:
		return ErrNotOwner
	case StTooLarge:
		return ErrImageTooLarge
	case StIO:
		return fmt.Errorf("rfsrv: remote I/O error (status %d)", st)
	default:
		// Unknown statuses (a newer peer) degrade to the same remote
		// I/O error as StIO.
		return fmt.Errorf("rfsrv: remote I/O error (status %d)", st)
	}
}

// Resp is a protocol response. Every reply that resolves an inode also
// carries that inode's size epoch (see Server), so any round trip —
// data or control path — lets a cluster client revalidate its cached
// size against the coherence protocol's authority.
type Resp struct {
	Seq    uint64
	Status int32
	Attr   kernel.Attr
	// Epoch is the size epoch of the inode Attr describes. On the wire
	// it rides in the slot that used to carry Attr.Version (which no
	// client ever consumed), so introducing the coherence protocol
	// changed no message length and no fault-free timing; a decoded
	// Attr.Version is therefore always zero.
	Epoch uint64
	// MemberEpoch is the server's membership-view epoch (DESIGN.md
	// §13). On the wire it rides in the top MemberEpochBits of the
	// 64-bit epoch slot — size epochs stay far below 2^48 over any
	// realistic run — so, like Epoch and Layout before it, carrying it
	// changed no message length, and a static-membership cluster
	// (member epoch 0) stays bit-identical on the wire.
	MemberEpoch uint64
	// Layout is the stripe-layout class of the inode Attr describes
	// (DESIGN.md §10). On the wire it rides in the high nibble of the
	// kind byte — file kinds never exceeded the low nibble — so, like
	// Epoch, introducing it changed no message length and no fault-free
	// timing; pre-layout replies decode as LayoutStandard. A sharded
	// server that does not home the inode answers layoutUnknown.
	Layout  LayoutClass
	N       uint32 // data bytes in the companion data transfer
	Entries []kernel.DirEntry
}

// respFixed is the fixed-size prefix of an encoded response.
const respFixed = 8 + 4 + 8 + 1 + 8 + 8 + 4 + 2

// HdrBufSize is the reply-header buffer size clients must post: fixed
// part plus room for directory listings. It bounds a whole reply
// message, a combined one included (answerFits).
const HdrBufSize = 16 * 1024

// answerFits is the one combined-reply rule, applied alike by the
// server that answers a request message and the client that retires
// it: the answers to every request one message carried — the leading
// request and those packed behind it (MetaBatch) — travel back in ONE
// reply, back to back in request order, while the reply stays within
// HdrBufSize: an answer of n bytes fits a reply of used bytes when
// used+n ≤ HdrBufSize. Every answer but a readdir's is respFixed bytes,
// so the server stops before a packed request once a fixed answer no
// longer fits, and after a readdir whose listing does not — dropping
// that answer, which is safe because a readdir changes nothing — and so
// never executes a request whose answer it does not deliver. A reply may
// therefore end early only before a readdir or with less than a fixed
// answer's room left (endsEarly), and the client continues from the
// first request it left unanswered. A single request's reply is its one
// answer, as it always was.
//
// allocfree
func answerFits(used, n int) bool { return used+n <= HdrBufSize }

// endsEarly is the client half of the rule: whether a reply of used
// bytes may stop short of the request next, the first it leaves
// unanswered.
//
// allocfree
func endsEarly(next Op, used int) bool { return next == OpReaddir || !answerFits(used, respFixed) }

// EncodeResp serializes a response into a fresh slice. It fails only
// if a directory listing overflows HdrBufSize.
func EncodeResp(r *Resp) ([]byte, error) {
	return EncodeRespInto(nil, r)
}

// EncodeRespInto appends the encoding of r to dst — the reply built so
// far, empty for its first answer — and returns the extended slice;
// server workers encode replies into per-request scratch buffers
// instead of allocating per reply. It fails, leaving dst as it was, when
// the answer does not fit the reply (answerFits): only a directory
// listing can.
//
// allocfree
func EncodeRespInto(dst []byte, r *Resp) ([]byte, error) {
	size := respFixed
	for _, e := range r.Entries {
		size += 8 + 1 + 2 + len(e.Name)
	}
	if !answerFits(len(dst), size) {
		//analyze:allow allocfree error path, never taken per-request
		return dst, fmt.Errorf("rfsrv: directory listing (%d bytes) exceeds reply buffer", size)
	}
	if r.Attr.Kind < 0 || r.Attr.Kind > 0xf || !ValidLayout(r.Layout) && r.Layout != layoutUnknown {
		// Kind and Layout share one wire byte (low/high nibble).
		//analyze:allow allocfree error path, never taken per-request
		return dst, fmt.Errorf("rfsrv: kind %d / layout %d overflow the kind byte", r.Attr.Kind, r.Layout)
	}
	pos := len(dst)
	dst = append(dst, make([]byte, size)...)
	out := dst[pos:]
	binary.LittleEndian.PutUint64(out[0:], r.Seq)
	binary.LittleEndian.PutUint32(out[8:], uint32(r.Status))
	binary.LittleEndian.PutUint64(out[12:], uint64(r.Attr.Ino))
	out[20] = byte(r.Attr.Kind) | byte(r.Layout)<<4
	binary.LittleEndian.PutUint64(out[21:], uint64(r.Attr.Size))
	binary.LittleEndian.PutUint64(out[29:], r.Epoch&SizeEpochMask|r.MemberEpoch<<MemberEpochShift)
	binary.LittleEndian.PutUint32(out[37:], r.N)
	binary.LittleEndian.PutUint16(out[41:], uint16(len(r.Entries)))
	at := respFixed
	for _, e := range r.Entries {
		binary.LittleEndian.PutUint64(out[at:], uint64(e.Ino))
		out[at+8] = byte(e.Kind)
		binary.LittleEndian.PutUint16(out[at+9:], uint16(len(e.Name)))
		copy(out[at+11:], e.Name)
		at += 11 + len(e.Name)
	}
	return dst, nil
}

// DecodeResps parses a whole reply — one answer, or the answers of a
// combined reply back to back (answerFits) — appending each to out. Every
// byte must belong to an answer.
func DecodeResps(b []byte, out []*Resp) ([]*Resp, error) {
	for len(b) > 0 {
		r, n, err := decodeAnswer(b)
		if err != nil {
			return out, err
		}
		out, b = append(out, r), b[n:]
	}
	return out, nil
}

// decodeAnswer parses the answer at the front of b and returns it with
// its length.
func decodeAnswer(b []byte) (*Resp, int, error) {
	if len(b) < respFixed {
		return nil, 0, fmt.Errorf("rfsrv: short response (%d bytes)", len(b))
	}
	r := &Resp{
		Seq:    binary.LittleEndian.Uint64(b[0:]),
		Status: int32(binary.LittleEndian.Uint32(b[8:])),
		Attr: kernel.Attr{
			Ino:  kernel.InodeID(binary.LittleEndian.Uint64(b[12:])),
			Kind: kernel.FileKind(b[20] & 0xf),
			Size: int64(binary.LittleEndian.Uint64(b[21:])),
		},
		Epoch:       binary.LittleEndian.Uint64(b[29:]) & SizeEpochMask,
		MemberEpoch: binary.LittleEndian.Uint64(b[29:]) >> MemberEpochShift,
		Layout:      LayoutClass(b[20] >> 4),
		N:           binary.LittleEndian.Uint32(b[37:]),
	}
	count := int(binary.LittleEndian.Uint16(b[41:]))
	pos := respFixed
	for i := 0; i < count; i++ {
		if len(b) < pos+11 {
			return nil, 0, fmt.Errorf("rfsrv: truncated dirent")
		}
		e := kernel.DirEntry{
			Ino:  kernel.InodeID(binary.LittleEndian.Uint64(b[pos:])),
			Kind: kernel.FileKind(b[pos+8]),
		}
		nameLen := int(binary.LittleEndian.Uint16(b[pos+9:]))
		if len(b) < pos+11+nameLen {
			return nil, 0, fmt.Errorf("rfsrv: truncated dirent name")
		}
		e.Name = string(b[pos+11 : pos+11+nameLen])
		r.Entries = append(r.Entries, e)
		pos += 11 + nameLen
	}
	return r, pos, nil
}

// Client is the synchronous protocol: post a request and wait on it.
// A Session at window 1 is the paper-faithful implementation (one
// outstanding request, like the prototypes); a wider Session and a
// Cluster satisfy the same interface, so consumers pick their
// concurrency by construction.
type Client interface {
	// Meta performs a metadata operation (no bulk data).
	Meta(p *sim.Proc, req *Req) (*Resp, error)
	// Read reads up to dst.TotalLen() bytes at off into dst.
	Read(p *sim.Proc, ino kernel.InodeID, off int64, dst core.Vector) (*Resp, error)
	// Write writes src at off.
	Write(p *sim.Proc, ino kernel.InodeID, off int64, src core.Vector) (*Resp, error)
	// Rename moves (srcName in srcDir) to (dstName in dstDir). On a
	// single server it is one OpRenameLocal; on a sharded cluster it is
	// the two-phase cross-owner protocol, whose interrupted runs surface
	// as ErrRenameInDoubt (re-drive the same rename to resolve).
	Rename(p *sim.Proc, srcDir kernel.InodeID, srcName string, dstDir kernel.InodeID, dstName string) (*Resp, error)
}

// Match/tag layout shared by the transports: kind in the low 4 bits,
// the client endpoint above it, the sequence number above that. All
// requests share the constant reqTag (servers match them FIFO);
// replies are tagged per (seq, client endpoint) so concurrent clients
// of one server never collide.
const (
	kindReq uint64 = iota
	kindHdr
	kindData
	kindPayload
)

const reqTag = kindReq

// allocfree
func tag(seq uint64, ep uint8, kind uint64) uint64 {
	return seq<<12 | uint64(ep)<<4 | kind
}

// payloadTag tags a write payload that travels as its own message. A
// reply tag needs no sender — it goes to the one client endpoint that
// issued seq — but a payload goes to the server, whose clients on
// different nodes share endpoint numbers (every cluster client uses
// endpoint 10+j toward server j) and count sequence numbers from 1, so
// the sending node rides in 16 bits between endpoint and sequence: two
// clients' payloads can never match each other's receive. That leaves
// the sequence 36 bits (28 under GM's port byte), far beyond any run.
//
// allocfree
func payloadTag(src hw.NodeID, seq uint64, ep uint8) uint64 {
	return tag(seq<<16|uint64(src)&0xffff, ep, kindPayload)
}

// inlinePayload is the one write-payload rule, applied alike by the
// client that sends a write and the server that receives it: the n
// payload bytes ride behind the head-byte request encoding when the
// whole message stays within the transport's eager limit (so it lands
// in the receiver's inbox with no rendezvous), and otherwise follow as
// their own payloadTag message — or, under the piece rule, as eager
// pieces of it (pieces) — which the server receives into fresh frames
// of its block store. A transport without vectors has no eager limit to
// fit, so every one of its payloads travels alone.
//
// allocfree
func inlinePayload(eagerMax, head, n int) bool { return head+n <= eagerMax }

// piecesBit marks an OpRead or OpWrite whose data travels in pieces'
// messages. It rides in Len's top bit, as an exact OpSetSize's mode does
// (PackSetSize); a request may carry it only under the rule, and the
// server answers any other use with StInval.
const piecesBit = 1 << 31

// pieces is the one piece rule, applied alike in both directions by the
// client and the server: the n bytes of an OpRead or OpWrite whose
// memory on the client is handed over physically (physData) travel in
// ⌈n/eagerMax⌉ eager messages of eagerMax bytes each, the last shorter,
// when the transport has an eager limit and eagerMax < n ≤
// MaxWriteChunk — which bounds the count at MaxWriteChunk/eagerMax (8 on
// MX). Every other read or write takes one message (1): a larger one
// keeps MX's rendezvous. Each piece lands in its own receive, posted
// before the piece can arrive — a read's by the client before its
// request leaves, a write's by the server's receiver as it admits the
// header, which the pieces follow on the wire — so no piece waits in the
// unexpected queue and none pays the rendezvous's RTS/CTS exchange or
// large-message overhead. The sender sends exactly that many, a read's
// empty past the data's end, and in order: one NIC's messages to one
// peer arrive in the order sent, and the receives match in the order
// posted.
//
// allocfree
func pieces(op Op, eagerMax, n int) int {
	if op != OpRead && op != OpWrite || eagerMax <= 0 || n <= eagerMax || n > MaxWriteChunk {
		return 1
	}
	return (n + eagerMax - 1) / eagerMax
}

// takePieces is the server half of the rule: it strips piecesBit from
// req and returns how many messages req's data travels in — pieces'
// count when the bit asks for it under the rule, one without the bit,
// and 0 for the bit outside the rule, a protocol violation.
//
// allocfree
func takePieces(req *Req, eagerMax int) int {
	if req.Len&piecesBit == 0 {
		return 1
	}
	req.Len &^= piecesBit
	if k := pieces(req.Op, eagerMax, int(req.Len)); k > 1 {
		return k
	}
	return 0
}

// reqBufSize bounds a request message other than an inline write: a
// header and name, or a packed metadata batch.
const reqBufSize = 4096

// MaxWriteChunk bounds the data carried by one write RPC; clients loop
// over larger writes.
const MaxWriteChunk = 256 * 1024
