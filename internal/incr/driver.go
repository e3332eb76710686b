package incr

import (
	"encoding/json"
	"sync"

	"assignmentmotion/internal/ir"
)

// Store is the persistence seam of the incremental layer: the engine's
// Backend satisfies it directly (internal/cachestore on disk), and a nil
// store selects an in-process map, so incremental reuse works within one
// engine lifetime even without a cache directory.
type Store interface {
	Get(key string) (data []byte, ok bool)
	Put(key string, data []byte) error
}

// memStore is the in-process fallback store. Entries are bounded by the
// heads ring: when a fingerprint falls off the ring its manifest is
// deleted, so the map holds at most headsMax manifests per config.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (st *memStore) Get(key string) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	data, ok := st.m[key]
	return data, ok
}

func (st *memStore) Put(key string, data []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m[key] = data
	return nil
}

func (st *memStore) delete(key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.m, key)
}

// Driver owns the incremental artifact flow of one engine: storing
// manifests recorded on clean cold runs, maintaining the per-config ring
// of recent fingerprints, and attempting warm replays against it.
type Driver struct {
	st  Store
	mem *memStore // non-nil when st is the in-process fallback

	// mu serializes read-modify-write of the heads ring. Manifest bytes
	// themselves go through the store's own synchronization.
	mu sync.Mutex

	// decoded caches Manifest objects by store key, seeded by Record with
	// the live manifest and populated by TryWarm after a decode, so the
	// hot warm path skips JSON decoding (and, via the manifest's memoized
	// final graph, re-parsing). Bounded like the store: an entry is
	// dropped when its fingerprint falls off a heads ring, with a global
	// size backstop for many-config engines.
	decMu   sync.Mutex
	decoded map[string]*Manifest
}

// decodedMax caps the decoded-manifest cache across all configs.
const decodedMax = 4 * headsMax

func (d *Driver) decGet(key string) (*Manifest, bool) {
	d.decMu.Lock()
	defer d.decMu.Unlock()
	m, ok := d.decoded[key]
	return m, ok
}

func (d *Driver) decPut(key string, m *Manifest) {
	d.decMu.Lock()
	defer d.decMu.Unlock()
	if len(d.decoded) >= decodedMax {
		for k := range d.decoded {
			delete(d.decoded, k)
			if len(d.decoded) < decodedMax {
				break
			}
		}
	}
	d.decoded[key] = m
}

func (d *Driver) decDelete(key string) {
	d.decMu.Lock()
	defer d.decMu.Unlock()
	delete(d.decoded, key)
}

// NewDriver returns a driver over st; a nil st selects the in-process
// fallback store.
func NewDriver(st Store) *Driver {
	d := &Driver{st: st, decoded: map[string]*Manifest{}}
	if st == nil {
		d.mem = &memStore{m: map[string][]byte{}}
		d.st = d.mem
	}
	return d
}

// Record stores the manifest of a clean cold run and pushes its
// fingerprint to the front of the config's heads ring.
func (d *Driver) Record(cfg string, m *Manifest) {
	if m == nil {
		return
	}
	data, err := m.Encode()
	if err != nil {
		return
	}
	d.st.Put(ManifestKey(cfg, m.Fp), data)
	d.decPut(ManifestKey(cfg, m.Fp), m)

	d.mu.Lock()
	defer d.mu.Unlock()
	heads := d.loadHeads(cfg)
	next := make([]string, 0, len(heads)+1)
	next = append(next, m.Fp)
	for _, h := range heads {
		if h != m.Fp {
			next = append(next, h)
		}
	}
	for len(next) > headsMax {
		evicted := next[len(next)-1]
		next = next[:len(next)-1]
		d.decDelete(ManifestKey(cfg, evicted))
		if d.mem != nil {
			d.mem.delete(ManifestKey(cfg, evicted))
		}
	}
	if data, err := json.Marshal(next); err == nil {
		d.st.Put(HeadsKey(cfg), data)
	}
}

// TryWarm attempts a warm replay of src (whose fingerprint is fp)
// against the recorded predecessors of cfg, most recent first. ok=false
// means no predecessor certified — the caller runs cold.
//
// The source's post-init view is built once per attempt, on the first
// head worth trying, and shared read-only by every head after it.
func (d *Driver) TryWarm(cfg, fp string, src *ir.Graph) (*WarmResult, bool) {
	d.mu.Lock()
	heads := d.loadHeads(cfg)
	d.mu.Unlock()
	var view *postInit
	for _, h := range heads {
		if h == fp {
			// An identical graph is the memory/disk tiers' business.
			continue
		}
		key := ManifestKey(cfg, h)
		man, cached := d.decGet(key)
		if !cached {
			data, ok := d.st.Get(key)
			if !ok {
				continue
			}
			man, ok = DecodeManifest(data)
			if !ok || man.Fp != h || man.Cfg != cfg {
				continue
			}
			d.decPut(key, man)
		}
		if view == nil {
			var ok bool
			if view, ok = newPostInit(src); !ok {
				return nil, false
			}
		}
		if res, ok := view.replay(man); ok {
			return res, true
		}
	}
	return nil, false
}

func (d *Driver) loadHeads(cfg string) []string {
	data, ok := d.st.Get(HeadsKey(cfg))
	if !ok {
		return nil
	}
	var heads []string
	if json.Unmarshal(data, &heads) != nil {
		return nil
	}
	if len(heads) > headsMax {
		heads = heads[:headsMax]
	}
	return heads
}
