package torture

// The per-inode model. ModeData files carry a byte-exact shadow plus
// the two size bounds §9 actually guarantees a client: `size` (the
// model's exact size — reads can never return past it) and `floor`
// (the size every server this client may still route to is known to
// cover — established by exact sets, which refuse Reinstate to any
// server that missed them, and by writes, which publish their end
// before they return, completed with no exclusion in sight). ModeNS
// entries are namespace states that a fault can leave two-valued until
// the end-of-run collapse.

import "repro/internal/kernel"

// Harness shape constants (sizes in bytes come from Config.Stripe).
const (
	dirsPerClient  = 2
	maxFiles       = 4 // private files per client, ModeData
	sharedFiles    = 2
	regionStripes  = 4  // per-client slice of a shared file
	maxFileStripes = 8  // private file size cap
	maxIOStripes   = 3  // single read/write cap
	wholeShare     = 25 // percent of private files created whole-on-home, ModeData
)

// fileModel is a private (single-writer) file's model.
type fileModel struct {
	handle int
	dir    *dirModel
	name   string
	ino    kernel.InodeID
	data   []byte // exact shadow
	pos    int64  // file position (open/seek/sequential ops)
	floor  int64  // size every still-usable server is known to cover
}

func (f *fileModel) size() int64 { return int64(len(f.data)) }

// entry states (ModeNS).
const (
	stPresent uint8 = iota
	stAbsent
	stMaybe // a faulted mutation left the outcome two-valued
)

// entryModel is one (dir, name) namespace entry's model.
type entryModel struct {
	name   string
	handle int
	ino    kernel.InodeID
	kind   kernel.FileKind
	state  uint8
	// lag marks owner-group members that may have missed this entry's
	// latest transition: set when a mutation succeeded while the
	// member was excluded in this client's view, or when a fault left
	// the fan's per-member application unknown. End checks skip
	// lagged members.
	lag uint64
	// tainted marks an entry a faulted rename may have left carrying
	// stray prepare marks on some members. A later mutation can split
	// the owner group between StBusy and success — the cluster
	// classifies that split as the in-doubt window showing through and
	// answers ErrBusy, which the generator models (mutations of tainted
	// entries may be refused busy with no state change) rather than
	// avoids.
	tainted bool
}

// dirModel is one client-private directory.
type dirModel struct {
	handle  int
	name    string // entry name under the root
	ino     kernel.InodeID
	res     int // owner residue
	entries map[string]*entryModel
	names   []string // insertion-ordered keys: choices never iterate a map
}

func (d *dirModel) entry(name string) *entryModel { return d.entries[name] }

func (d *dirModel) put(e *entryModel) {
	if _, ok := d.entries[e.name]; !ok {
		d.names = append(d.names, e.name)
	}
	d.entries[e.name] = e
}

// inDoubtRename is an ErrRenameInDoubt outcome awaiting its end-of-run
// re-drive.
type inDoubtRename struct {
	src, dst         *dirModel
	srcName, dstName string
	handle           int
	ino              kernel.InodeID
	kind             kernel.FileKind
}

// sharedFile is a multi-writer file: each client owns a disjoint
// region (regionStripes wide) and a harness-level era scheme
// truncates the file to zero between write generations — the §9
// cross-client staleness exercise (the truncating client bumps the
// size epoch; every other client's next publish is refused StStale
// and revalidates).
type sharedFile struct {
	handle int
	ino    kernel.InodeID
	era    int
	// eraLock blocks new shared operations while a truncation is
	// choosing its moment / in flight; busy counts shared operations
	// in flight. Both are check-and-set under cooperative scheduling.
	eraLock bool
	busy    int
	// regions[c] shadows client c's region contents for the CURRENT
	// era; ownEnd[c] is how far into its region c has written.
	regions [][]byte
	ownEnd  []int64
}

func (sf *sharedFile) base(client int, stripe int64) int64 {
	return int64(client) * regionBytes(stripe)
}

func regionBytes(stripe int64) int64 { return regionStripes * stripe }
