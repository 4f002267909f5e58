// Package mem models the guest's memory subsystem at page granularity:
// page tables, the kernel's active/inactive LRU lists, NUMA topology, and
// cgroup-style local-memory limits. It is the substrate the swap engine
// (package swap) reclaims from and faults into.
package mem

import (
	"fmt"

	"repro/internal/invariant"
)

// Registered invariants for the LRU machinery. Exclusivity is the kernel's
// core list law: every resident page sits on exactly one of active/inactive,
// so active.size + inactive.size always equals the resident count, and the
// per-type resident counts always sum to it. Audit() proves the structural
// version (walking the links); these O(1) checks guard every mutation.
var (
	ckLRUExclusive = invariant.Register("mem.lru.exclusive")
	ckLRUCounts    = invariant.Register("mem.lru.resident-counts")
)

// checkCounts asserts the O(1) conservation laws after an LRU mutation.
func (ps *PageSet) checkCounts() {
	ckLRUExclusive.Assert(ps.active.size+ps.inactive.size == ps.resident,
		"active %d + inactive %d != resident %d",
		ps.active.size, ps.inactive.size, ps.resident)
	ckLRUCounts.Assert(ps.resident >= 0 &&
		ps.residentByType[Anonymous]+ps.residentByType[FileBacked] == ps.resident,
		"resident %d, by type %d+%d",
		ps.resident, ps.residentByType[Anonymous], ps.residentByType[FileBacked])
}

// PageType distinguishes the two page classes the paper's switching strategy
// keys on (Fig 8): anonymous pages go through the swap path; file-backed
// pages are dropped or written back to their file and re-read on fault.
type PageType uint8

// Page classes.
const (
	Anonymous PageType = iota
	FileBacked
)

func (t PageType) String() string {
	if t == Anonymous {
		return "anon"
	}
	return "file"
}

// listID identifies which LRU list a page is on.
type listID uint8

const (
	onNone listID = iota
	onActive
	onInactive
)

const nilPage int32 = -1

// Page is one base (4 KiB) page of a process's address space.
type Page struct {
	Type     PageType
	Resident bool
	Dirty    bool
	Node     int8 // NUMA node holding the page while resident

	prev, next int32
	list       listID
}

// PageSet is a process's page table plus its LRU machinery. Pages are
// identified by dense indices [0, Len).
type PageSet struct {
	pages          []Page
	active         lru
	inactive       lru
	resident       int
	residentByType [2]int
}

// lru is an intrusive doubly-linked list over PageSet.pages.
type lru struct {
	head, tail int32
	size       int
}

// NewPageSet creates a page set of n pages, all of type Anonymous and
// non-resident. Callers mark file-backed ranges with SetType.
func NewPageSet(n int) *PageSet {
	ps := &PageSet{}
	ps.Reset(n)
	return ps
}

// Reset returns the page set to the state NewPageSet(n) builds, reusing the
// page table's backing array when it is large enough.
func (ps *PageSet) Reset(n int) {
	if n <= 0 {
		panic("mem: page set must have at least one page")
	}
	if cap(ps.pages) < n {
		ps.pages = make([]Page, n)
	}
	ps.pages = ps.pages[:n]
	for i := range ps.pages {
		ps.pages[i] = Page{prev: nilPage, next: nilPage}
	}
	ps.active = lru{head: nilPage, tail: nilPage}
	ps.inactive = lru{head: nilPage, tail: nilPage}
	ps.resident = 0
	ps.residentByType = [2]int{}
}

// Len reports the number of pages.
func (ps *PageSet) Len() int { return len(ps.pages) }

// Page returns a pointer to page id for inspection. The LRU must be mutated
// only through PageSet methods.
func (ps *PageSet) Page(id int32) *Page { return &ps.pages[id] }

// Resident reports how many pages are currently in local memory.
func (ps *PageSet) Resident() int { return ps.resident }

// SetType marks pages [from, to) as the given type. Only valid before the
// pages become resident.
func (ps *PageSet) SetType(from, to int32, t PageType) {
	for i := from; i < to; i++ {
		if ps.pages[i].Resident {
			panic("mem: SetType on resident page")
		}
		ps.pages[i].Type = t
	}
}

func (ps *PageSet) list(id listID) *lru {
	if id == onActive {
		return &ps.active
	}
	return &ps.inactive
}

func (ps *PageSet) pushFront(l *lru, id int32) {
	p := &ps.pages[id]
	p.prev = nilPage
	p.next = l.head
	if l.head != nilPage {
		ps.pages[l.head].prev = id
	}
	l.head = id
	if l.tail == nilPage {
		l.tail = id
	}
	l.size++
}

func (ps *PageSet) remove(l *lru, id int32) {
	p := &ps.pages[id]
	if p.prev != nilPage {
		ps.pages[p.prev].next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nilPage {
		ps.pages[p.next].prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nilPage, nilPage
	l.size--
}

// MakeResident brings page id into local memory on the given NUMA node and
// places it at the head of the inactive list (newly faulted pages must prove
// their heat before reaching the active list, as in Linux).
func (ps *PageSet) MakeResident(id int32, node int8) {
	p := &ps.pages[id]
	if p.Resident {
		panic(fmt.Sprintf("mem: page %d already resident", id))
	}
	p.Resident = true
	p.Node = node
	p.list = onInactive
	ps.pushFront(&ps.inactive, id)
	ps.resident++
	ps.residentByType[p.Type]++
	if invariant.On {
		ps.checkCounts()
	}
}

// Evict removes page id from local memory and from its LRU list, reporting
// whether it was dirty (and therefore needs writeback).
func (ps *PageSet) Evict(id int32) (dirty bool) {
	p := &ps.pages[id]
	if !p.Resident {
		panic(fmt.Sprintf("mem: evicting non-resident page %d", id))
	}
	if p.list != onNone {
		ps.remove(ps.list(p.list), id)
		p.list = onNone
	}
	p.Resident = false
	ps.resident--
	ps.residentByType[p.Type]--
	dirty = p.Dirty
	p.Dirty = false
	if invariant.On {
		ps.checkCounts()
	}
	return dirty
}

// Touch records an access to a resident page. Writes mark the page dirty.
// Pages on the inactive list are promoted to the active list; active pages
// move to the list head (LRU order).
func (ps *PageSet) Touch(id int32, write bool) {
	p := &ps.pages[id]
	if !p.Resident {
		panic(fmt.Sprintf("mem: touching non-resident page %d", id))
	}
	if write {
		p.Dirty = true
	}
	switch p.list {
	case onInactive:
		ps.remove(&ps.inactive, id)
		p.list = onActive
		ps.pushFront(&ps.active, id)
	case onActive:
		ps.remove(&ps.active, id)
		ps.pushFront(&ps.active, id)
	}
	if invariant.On {
		ckLRUExclusive.Assert(p.list == onActive || p.list == onInactive,
			"resident page %d on no LRU list after touch", id)
		ps.checkCounts()
	}
}

// ReclaimCandidate pops the coldest page: the tail of the inactive list,
// refilling the inactive list from the active tail when it runs dry. It
// returns -1 if no resident page remains. The page stays resident — the
// caller evicts it once any writeback completes.
func (ps *PageSet) ReclaimCandidate() int32 {
	ps.balance()
	if ps.inactive.tail != nilPage {
		return ps.inactive.tail
	}
	if ps.active.tail != nilPage {
		return ps.active.tail
	}
	return nilPage
}

// balance keeps the inactive list at least ~1/4 of resident pages by
// demoting from the active tail, mirroring the kernel's shrink_active_list.
func (ps *PageSet) balance() {
	for ps.inactive.size*4 < ps.resident && ps.active.tail != nilPage {
		id := ps.active.tail
		ps.remove(&ps.active, id)
		ps.pages[id].list = onInactive
		ps.pushFront(&ps.inactive, id)
	}
}

// Audit walks the full LRU structure and verifies it against the page table:
// list links are mutually consistent, recorded sizes match the walks, every
// resident page sits on exactly the list its tag claims (and non-resident
// pages on none), and the resident counters match a recount. It is O(n) —
// meant for tests and the metamorphic suite, not the hot path.
func (ps *PageSet) Audit() error {
	walk := func(l *lru, id listID, name string) (map[int32]bool, error) {
		seen := make(map[int32]bool)
		prev := nilPage
		for cur := l.head; cur != nilPage; cur = ps.pages[cur].next {
			if seen[cur] {
				return nil, fmt.Errorf("mem audit: %s list cycles at page %d", name, cur)
			}
			seen[cur] = true
			p := &ps.pages[cur]
			if p.prev != prev {
				return nil, fmt.Errorf("mem audit: %s list back-link of page %d is %d, want %d",
					name, cur, p.prev, prev)
			}
			if p.list != id {
				return nil, fmt.Errorf("mem audit: page %d on %s list but tagged %d", cur, name, p.list)
			}
			if !p.Resident {
				return nil, fmt.Errorf("mem audit: non-resident page %d on %s list", cur, name)
			}
			prev = cur
		}
		if l.tail != prev {
			return nil, fmt.Errorf("mem audit: %s tail is %d, walk ended at %d", name, l.tail, prev)
		}
		if l.size != len(seen) {
			return nil, fmt.Errorf("mem audit: %s size %d, walk found %d", name, l.size, len(seen))
		}
		return seen, nil
	}
	act, err := walk(&ps.active, onActive, "active")
	if err != nil {
		return err
	}
	inact, err := walk(&ps.inactive, onInactive, "inactive")
	if err != nil {
		return err
	}
	var resident int
	var byType [2]int
	for i := range ps.pages {
		id := int32(i)
		p := &ps.pages[i]
		onAct, onInact := act[id], inact[id]
		if onAct && onInact {
			return fmt.Errorf("mem audit: page %d on both LRU lists", id)
		}
		if p.Resident {
			resident++
			byType[p.Type]++
			if !onAct && !onInact {
				return fmt.Errorf("mem audit: resident page %d on no LRU list", id)
			}
		} else if onAct || onInact {
			return fmt.Errorf("mem audit: non-resident page %d on an LRU list", id)
		}
	}
	if resident != ps.resident {
		return fmt.Errorf("mem audit: resident counter %d, recount %d", ps.resident, resident)
	}
	if byType != ps.residentByType {
		return fmt.Errorf("mem audit: residentByType %v, recount %v", ps.residentByType, byType)
	}
	return nil
}
