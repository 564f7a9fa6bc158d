package txn

import (
	"fmt"
	gopath "path"
	"sort"
	"strconv"
	"strings"

	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/vfs"
)

// markerName is the durable commit-intention marker inside the shadow
// subtree; markerMagic is its first line.
const (
	markerName  = "/.commit"
	markerMagic = "TXNCOMMIT1\n"
)

var recoverCred = vfs.Cred{UID: 0, GID: 0}

// Recover finishes a transaction that a crash interrupted mid-commit. It
// runs on a recovered world (journal replayed, fsck clean) before any new
// work: if the shadow subtree holds a durable commit marker the commit
// had passed its commit point, and Recover rolls it forward from the
// shadow copies — the marker lists every write and removal, and the
// shadow tree's contents are durable because the marker's sync barrier
// ordered them into the journal first. Without a marker the crash landed
// before the commit point (or after a completed commit or rollback) and
// the real tree is already in a consistent all-or-nothing state, so
// Recover does nothing.
//
// Recover is idempotent: every roll-forward step is an absolute
// overwrite or a tolerated-missing removal, and the marker is cleared
// only after the last step, so a crash during recovery simply rolls
// forward again on the next boot.
//
// It reports whether a roll-forward was performed.
func Recover(k *kernel.Kernel, shadowRoot string) (bool, error) {
	shadowRoot = gopath.Clean(shadowRoot)
	fs := k.FS()
	marker := shadowRoot + markerName
	mip, e := fs.Lookup(nil, nil, marker, recoverCred, true)
	if e == sys.ENOENT {
		return false, nil
	}
	if e != sys.OK {
		return false, fmt.Errorf("txn: recover %s: %w", marker, e)
	}
	if len(mip.Bytes()) == 0 {
		// The crash landed between the marker's creation and its single
		// content write reaching the journal: the commit point was never
		// durable and no real mutation can have preceded it. Roll back by
		// discarding the husk.
		return false, k.Remove(marker)
	}
	writes, removes, err := parseMarker(mip.Bytes())
	if err != nil {
		return false, fmt.Errorf("txn: recover %s: %w", marker, err)
	}

	// Creations parents-first, like Commit.
	sort.Slice(writes, func(i, j int) bool { return len(writes[i].path) < len(writes[j].path) })
	for _, it := range writes {
		if it.isDir {
			if err := k.MkdirAll(it.path, 0o777); err != nil {
				return false, err
			}
			continue
		}
		sip, e := fs.Lookup(nil, nil, shadowRoot+it.path, recoverCred, false)
		if e == sys.ENOENT {
			// The shadow copy never became durable; with the marker synced
			// first that cannot happen for real commits, but a marker from
			// a half-written shadow is still recovered best-effort.
			continue
		}
		if e != sys.OK {
			return false, fmt.Errorf("txn: recover shadow of %s: %w", it.path, e)
		}
		if err := k.MkdirAll(gopath.Dir(it.path), 0o777); err != nil {
			return false, err
		}
		st := sip.Stat()
		if sip.IsSymlink() {
			target, e := sip.Readlink()
			if e != sys.OK {
				return false, fmt.Errorf("txn: recover readlink %s: %w", it.path, e)
			}
			if err := k.Remove(it.path); err != nil {
				return false, err
			}
			dir, name, _, e := fs.LookupParent(nil, nil, it.path, recoverCred)
			if e != sys.OK {
				return false, fmt.Errorf("txn: recover %s: %w", it.path, e)
			}
			if _, e := fs.Symlink(dir, name, target, recoverCred); e != sys.OK {
				return false, fmt.Errorf("txn: recover symlink %s: %w", it.path, e)
			}
			continue
		}
		if err := k.WriteFile(it.path, sip.Bytes(), st.Mode&0o7777); err != nil {
			return false, err
		}
		if rip, e := fs.Lookup(nil, nil, it.path, recoverCred, false); e == sys.OK {
			fs.Chmod(rip, st.Mode&0o7777, recoverCred)
			fs.Chown(rip, st.UID, st.GID, recoverCred)
		}
	}

	// Removals children-first, like Commit. A path already gone (the
	// crashed commit had renamed it into the undo area) is simply done.
	sort.Slice(removes, func(i, j int) bool { return len(removes[i].path) > len(removes[j].path) })
	for _, it := range removes {
		dir, name, existing, e := fs.LookupParent(nil, nil, it.path, recoverCred)
		if e == sys.ENOENT {
			continue
		}
		if e != sys.OK {
			return false, fmt.Errorf("txn: recover remove %s: %w", it.path, e)
		}
		if existing == nil {
			continue
		}
		if it.isDir {
			if e := fs.Rmdir(dir, name, recoverCred); e != sys.OK && e != sys.ENOTEMPTY {
				return false, fmt.Errorf("txn: recover rmdir %s: %w", it.path, e)
			}
		} else if e := fs.Unlink(dir, name, recoverCred); e != sys.OK {
			return false, fmt.Errorf("txn: recover unlink %s: %w", it.path, e)
		}
	}

	// Clearing the marker is the last step; the journal barrier makes the
	// completed recovery durable.
	if err := k.Remove(marker); err != nil {
		return false, err
	}
	if w := k.Journal(); w != nil {
		w.Commit()
	}
	return true, nil
}

type markerItem struct {
	path  string
	isDir bool
}

func parseMarker(data []byte) (writes, removes []markerItem, err error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0]+"\n" != markerMagic {
		return nil, nil, fmt.Errorf("bad marker magic")
	}
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		tag, rest, ok := strings.Cut(ln, " ")
		if !ok {
			return nil, nil, fmt.Errorf("bad marker line %q", ln)
		}
		path, uerr := strconv.Unquote(rest)
		if uerr != nil {
			return nil, nil, fmt.Errorf("bad marker line %q: %v", ln, uerr)
		}
		switch tag {
		case "W":
			writes = append(writes, markerItem{path, false})
		case "D":
			writes = append(writes, markerItem{path, true})
		case "R":
			removes = append(removes, markerItem{path, false})
		case "X":
			removes = append(removes, markerItem{path, true})
		default:
			return nil, nil, fmt.Errorf("bad marker tag %q", tag)
		}
	}
	return writes, removes, nil
}
