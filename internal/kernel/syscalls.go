package kernel

import (
	"interpose/internal/sys"
	"interpose/internal/vfs"
)

// Syscall implements sys.Handler: the kernel is the default, lowest-level
// instance of the system interface. c must be a context minted by this
// kernel (a *Proc or a LayerCtx wrapping one).
func (k *Kernel) Syscall(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
	p := ctxProc(c)
	if p == nil {
		// A context not minted by this kernel carries no process state to
		// run the call against; fail it instead of crashing.
		return sys.Retval{}, sys.EFAULT
	}
	var rv sys.Retval
	var err sys.Errno
	switch num {
	case sys.SYS_exit:
		k.sysExit(p, a) // does not return
	case sys.SYS_fork:
		rv, err = k.sysFork(p)
	case sys.SYS_read:
		rv, err = k.sysRead(p, a)
	case sys.SYS_write:
		rv, err = k.sysWrite(p, a)
	case sys.SYS_open:
		rv, err = k.sysOpen(p, a)
	case sys.SYS_close:
		rv, err = k.sysClose(p, a)
	case sys.SYS_wait4:
		rv, err = k.sysWait4(p, a)
	case sys.SYS_creat:
		rv, err = k.sysOpen(p, sys.Args{a[0], sys.O_WRONLY | sys.O_CREAT | sys.O_TRUNC, a[1]})
	case sys.SYS_link:
		rv, err = k.sysLink(p, a)
	case sys.SYS_unlink:
		rv, err = k.sysUnlink(p, a)
	case sys.SYS_chdir:
		rv, err = k.sysChdir(p, a)
	case sys.SYS_fchdir:
		rv, err = k.sysFchdir(p, a)
	case sys.SYS_mknod:
		rv, err = k.sysMknod(p, a)
	case sys.SYS_chmod:
		rv, err = k.sysChmod(p, a)
	case sys.SYS_chown:
		rv, err = k.sysChown(p, a)
	case sys.SYS_brk:
		rv, err = k.sysBrk(p, a)
	case sys.SYS_lseek:
		rv, err = k.sysLseek(p, a)
	case sys.SYS_getpid:
		rv, err = k.sysGetpid(p)
	case sys.SYS_setuid:
		rv, err = k.sysSetuid(p, a)
	case sys.SYS_getuid:
		rv, err = k.sysGetuid(p)
	case sys.SYS_geteuid:
		rv, err = k.sysGeteuid(p)
	case sys.SYS_access:
		rv, err = k.sysAccess(p, a)
	case sys.SYS_sync, sys.SYS_fsync:
		// The in-memory filesystem itself is always "on disk", but with a
		// write-ahead journal attached, sync is the group-commit barrier:
		// it pushes the buffered journal tail to the store. A latched
		// journal failure surfaces as EIO.
		if w := k.fs.Journal(); w != nil {
			if w.Commit() != nil {
				err = sys.EIO
			}
		}
	case sys.SYS_kill:
		rv, err = k.sysKill(p, a)
	case sys.SYS_stat:
		rv, err = k.sysStat(p, a, true)
	case sys.SYS_getppid:
		rv, err = k.sysGetppid(p)
	case sys.SYS_lstat:
		rv, err = k.sysStat(p, a, false)
	case sys.SYS_dup:
		rv, err = k.sysDup(p, a)
	case sys.SYS_pipe:
		rv, err = k.sysPipe(p)
	case sys.SYS_getegid:
		rv, err = k.sysGetegid(p)
	case sys.SYS_getgid:
		rv, err = k.sysGetgid(p)
	case sys.SYS_ioctl:
		rv, err = k.sysIoctl(p, a)
	case sys.SYS_symlink:
		rv, err = k.sysSymlink(p, a)
	case sys.SYS_readlink:
		rv, err = k.sysReadlink(p, a)
	case sys.SYS_execve:
		rv, err = k.sysExecve(p, a) // does not return on success
	case sys.SYS_umask:
		rv, err = k.sysUmask(p, a)
	case sys.SYS_chroot:
		rv, err = k.sysChroot(p, a)
	case sys.SYS_fstat:
		rv, err = k.sysFstat(p, a)
	case sys.SYS_getpagesize:
		rv = sys.Retval{sys.PageSize}
	case sys.SYS_getgroups:
		rv, err = k.sysGetgroups(p, a)
	case sys.SYS_setgroups:
		rv, err = k.sysSetgroups(p, a)
	case sys.SYS_getpgrp:
		rv, err = k.sysGetpgrp(p, a)
	case sys.SYS_setpgrp:
		rv, err = k.sysSetpgrp(p, a)
	case sys.SYS_setitimer:
		rv, err = k.sysSetitimer(p, a)
	case sys.SYS_getitimer:
		rv, err = k.sysGetitimer(p, a)
	case sys.SYS_gethostname:
		rv, err = k.sysGethostname(p, a)
	case sys.SYS_sethostname:
		rv, err = k.sysSethostname(p, a)
	case sys.SYS_getdtablesize:
		rv = sys.Retval{sys.OpenMax}
	case sys.SYS_dup2:
		rv, err = k.sysDup2(p, a)
	case sys.SYS_fcntl:
		rv, err = k.sysFcntl(p, a)
	case sys.SYS_sigvec:
		rv, err = k.sysSigvec(p, a)
	case sys.SYS_sigblock:
		rv, err = k.sysSigblock(p, a)
	case sys.SYS_sigsetmask:
		rv, err = k.sysSigsetmask(p, a)
	case sys.SYS_sigpause:
		rv, err = k.sysSigpause(p, a)
	case sys.SYS_gettimeofday:
		rv, err = k.sysGettimeofday(p, a)
	case sys.SYS_getrusage:
		rv, err = k.sysGetrusage(p, a)
	case sys.SYS_settimeofday:
		rv, err = k.sysSettimeofday(p, a)
	case sys.SYS_rename:
		rv, err = k.sysRename(p, a)
	case sys.SYS_truncate:
		rv, err = k.sysTruncate(p, a)
	case sys.SYS_ftruncate:
		rv, err = k.sysFtruncate(p, a)
	case sys.SYS_flock:
		rv, err = k.sysFlock(p, a)
	case sys.SYS_mkdir:
		rv, err = k.sysMkdir(p, a)
	case sys.SYS_rmdir:
		rv, err = k.sysRmdir(p, a)
	case sys.SYS_utimes:
		rv, err = k.sysUtimes(p, a)
	case sys.SYS_setsid:
		rv, err = k.sysSetsid(p)
	case sys.SYS_getrlimit:
		rv, err = k.sysGetrlimit(p, a)
	case sys.SYS_setrlimit:
		rv, err = k.sysSetrlimit(p, a)
	case sys.SYS_getdirentries:
		rv, err = k.sysGetdirentries(p, a)
	default:
		err = sys.ENOSYS
	}
	return rv, err
}

// cred returns the process's effective credentials for filesystem checks.
func (p *Proc) cred() vfs.Cred {
	p.mu.Lock()
	defer p.mu.Unlock()
	return vfs.Cred{UID: p.euid, GID: p.egid, Groups: p.groups}
}

// realCred returns the real credentials, used by access(2).
func (p *Proc) realCred() vfs.Cred {
	p.mu.Lock()
	defer p.mu.Unlock()
	return vfs.Cred{UID: p.uid, GID: p.gid, Groups: p.groups}
}

// namei resolves a path for p, honoring its working and root directories.
func (k *Kernel) namei(p *Proc, path string, follow bool) (*vfs.Inode, sys.Errno) {
	p.mu.Lock()
	cwd, root := p.cwd, p.root
	p.mu.Unlock()
	return k.fs.Lookup(root, cwd, path, p.cred(), follow)
}

// nameiParent resolves a path's parent directory for p.
func (k *Kernel) nameiParent(p *Proc, path string) (*vfs.Inode, string, *vfs.Inode, sys.Errno) {
	p.mu.Lock()
	cwd, root := p.cwd, p.root
	p.mu.Unlock()
	return k.fs.LookupParent(root, cwd, path, p.cred())
}

// pathArg copies in a pathname argument.
func (p *Proc) pathArg(addr sys.Word) (string, sys.Errno) {
	return p.CopyInString(addr, sys.PathMax-1)
}

// ioBuf bounds a user I/O size.
func ioCount(n sys.Word) (int, sys.Errno) {
	const maxIO = 8 << 20
	if int32(n) < 0 || n > maxIO {
		return 0, sys.EINVAL
	}
	return int(n), sys.OK
}
