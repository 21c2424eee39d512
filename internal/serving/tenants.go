package serving

import (
	"container/list"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	jsi "repro"
	"repro/internal/obs"
)

// A tenant is one isolated schema namespace: its own Repository (with
// its own lock and, per ingest run, its own cover), its own
// snapshot file, its own LRU slot. Handlers hold a tenant only between
// acquire and release; the refs count pins it against eviction while
// a request is in flight.
type tenant struct {
	name string
	// repo is swapped wholesale on snapshot restore; atomic so readers
	// need no lock (the Repository itself is concurrency-safe).
	repo atomic.Pointer[jsi.Repository]
	elem *list.Element
	refs int
}

// tenantSet owns every resident tenant plus their spill-to-disk
// lifecycle: at most max repositories stay in memory, and when the cap
// is exceeded the least-recently-used idle tenant is snapshotted to
// dir and dropped — bounded memory under an unbounded tenant
// population. A later request for an evicted tenant reloads its
// snapshot transparently.
//
// All map/LRU state and all snapshot I/O are guarded by one mutex;
// snapshots are one small JSON document per tenant (schemas, not
// data), so the critical sections stay short.
type tenantSet struct {
	dir  string
	max  int
	reg  *obs.Registry
	logf func(format string, args ...any)

	mu       sync.Mutex
	resident map[string]*tenant
	lru      list.List // front = most recently used; values are *tenant
}

func newTenantSet(dir string, max int, reg *obs.Registry, logf func(string, ...any)) *tenantSet {
	ts := &tenantSet{dir: dir, max: max, reg: reg, logf: logf, resident: make(map[string]*tenant)}
	ts.lru.Init()
	return ts
}

// maxTenantNameLen bounds tenant names so their hex-encoded snapshot
// file names stay well under every filesystem's limit.
const maxTenantNameLen = 100

// validTenantName rejects names that cannot round-trip through the
// URL path and the snapshot directory.
func validTenantName(name string) error {
	switch {
	case name == "":
		return errors.New("empty tenant name")
	case len(name) > maxTenantNameLen:
		return fmt.Errorf("tenant name longer than %d bytes", maxTenantNameLen)
	case strings.ContainsAny(name, "/\x00"):
		return errors.New("tenant name contains '/' or NUL")
	}
	return nil
}

// snapshotPath maps a tenant name to its snapshot file. Hex encoding
// makes any name filesystem-safe and collision-free.
func (ts *tenantSet) snapshotPath(name string) string {
	return filepath.Join(ts.dir, "t-"+hex.EncodeToString([]byte(name))+".json")
}

// tenantNameFromSnapshot inverts snapshotPath; ok is false for foreign
// files in the data dir.
func tenantNameFromSnapshot(base string) (string, bool) {
	enc, found := strings.CutPrefix(base, "t-")
	if !found {
		return "", false
	}
	enc, found = strings.CutSuffix(enc, ".json")
	if !found {
		return "", false
	}
	name, err := hex.DecodeString(enc)
	if err != nil {
		return "", false
	}
	return string(name), true
}

// acquire pins the named tenant, reloading its disk snapshot or
// creating it fresh as needed, and may evict idle tenants to stay
// under the residency cap. Callers must release exactly once.
func (ts *tenantSet) acquire(name string) (*tenant, error) {
	if err := validTenantName(name); err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t, ok := ts.resident[name]; ok {
		t.refs++
		ts.lru.MoveToFront(t.elem)
		return t, nil
	}
	repo, err := ts.loadSnapshotLocked(name)
	if err != nil {
		return nil, err
	}
	t := &tenant{name: name, refs: 1}
	t.repo.Store(repo)
	t.elem = ts.lru.PushFront(t)
	ts.resident[name] = t
	ts.evictLocked()
	ts.reg.Set("schemad_resident_tenants", int64(len(ts.resident)))
	return t, nil
}

// release unpins a tenant acquired with acquire.
func (ts *tenantSet) release(t *tenant) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t.refs--
}

// loadSnapshotLocked reads the tenant's snapshot if one exists, or
// returns a fresh repository.
func (ts *tenantSet) loadSnapshotLocked(name string) (*jsi.Repository, error) {
	f, err := os.Open(ts.snapshotPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return jsi.NewRepository(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("loading tenant %q: %w", name, err)
	}
	repo, err := jsi.LoadRepository(f)
	cerr := f.Close()
	if err != nil {
		return nil, fmt.Errorf("loading tenant %q: %w", name, err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("loading tenant %q: %w", name, cerr)
	}
	ts.reg.Add("schemad_tenant_loads", 1)
	return repo, nil
}

// writeSnapshot persists one repository atomically (temp file +
// rename), so a crash mid-write never corrupts an existing snapshot.
// The file is synced before the rename and the directory after it, so
// once writeSnapshot returns nil a crash cannot leave the snapshot
// empty or missing.
func (ts *tenantSet) writeSnapshot(name string, repo *jsi.Repository) (err error) {
	f, err := os.CreateTemp(ts.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("saving tenant %q: %w", name, err)
	}
	err = repo.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), ts.snapshotPath(name))
	}
	if err != nil {
		err = errors.Join(err, os.Remove(f.Name()))
		return fmt.Errorf("saving tenant %q: %w", name, err)
	}
	if err := syncDir(ts.dir); err != nil {
		return fmt.Errorf("saving tenant %q: %w", name, err)
	}
	return nil
}

// syncDir flushes a directory's entries, making a rename into it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// evictLocked spills least-recently-used idle tenants to disk until
// the residency cap holds. Tenants with requests in flight are never
// evicted; if everything is busy the set stays over cap until requests
// drain. A failed snapshot keeps its tenant resident (the data must
// not be dropped), is logged, and stops this eviction round.
func (ts *tenantSet) evictLocked() {
	for ts.max > 0 && ts.lru.Len() > ts.max {
		var victim *tenant
		for e := ts.lru.Back(); e != nil; e = e.Prev() {
			if t := e.Value.(*tenant); t.refs == 0 {
				victim = t
				break
			}
		}
		if victim == nil {
			return
		}
		if err := ts.writeSnapshot(victim.name, victim.repo.Load()); err != nil {
			ts.reg.Add("schemad_eviction_errors", 1)
			ts.logf("evicting tenant %q: %v", victim.name, err)
			return
		}
		ts.lru.Remove(victim.elem)
		delete(ts.resident, victim.name)
		ts.reg.Add("schemad_evictions", 1)
	}
}

// remove deletes a tenant outright: resident state and disk snapshot.
// Requests still holding the tenant keep a working (now orphaned)
// repository; their writes die with it.
func (ts *tenantSet) remove(name string) (existed bool, err error) {
	if err := validTenantName(name); err != nil {
		return false, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t, ok := ts.resident[name]; ok {
		ts.lru.Remove(t.elem)
		delete(ts.resident, name)
		existed = true
		ts.reg.Set("schemad_resident_tenants", int64(len(ts.resident)))
	}
	switch err := os.Remove(ts.snapshotPath(name)); {
	case err == nil:
		existed = true
	case !errors.Is(err, fs.ErrNotExist):
		return existed, fmt.Errorf("removing tenant %q: %w", name, err)
	}
	return existed, nil
}

// saveAll snapshots every resident tenant — the shutdown path, after
// the HTTP server has drained, so repositories survive a restart.
func (ts *tenantSet) saveAll() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	names := make([]string, 0, len(ts.resident))
	for name := range ts.resident {
		names = append(names, name)
	}
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		if err := ts.writeSnapshot(name, ts.resident[name].repo.Load()); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// tenantInfo is one row of the tenant listing.
type tenantInfo struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
	Records  int64  `json:"records,omitempty"`
}

// list reports every known tenant — resident ones with their record
// counts, plus evicted ones that exist only as snapshots — sorted by
// name.
func (ts *tenantSet) list() ([]tenantInfo, error) {
	ts.mu.Lock()
	infos := make(map[string]tenantInfo, len(ts.resident))
	for name, t := range ts.resident {
		infos[name] = tenantInfo{Name: name, Resident: true, Records: t.repo.Load().Count()}
	}
	ts.mu.Unlock()

	entries, err := os.ReadDir(ts.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name, ok := tenantNameFromSnapshot(e.Name())
		if !ok {
			continue
		}
		if _, resident := infos[name]; !resident {
			infos[name] = tenantInfo{Name: name}
		}
	}
	names := make([]string, 0, len(infos))
	for name := range infos {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]tenantInfo, len(names))
	for i, name := range names {
		out[i] = infos[name]
	}
	return out, nil
}
