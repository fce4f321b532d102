"""Virtual filesystem with capability-based pre-opened directories.

This is the filesystem-isolation mechanism of §3.4 of the paper: the embedder
exposes a *virtual directory tree* to the module in which every pre-opened
directory appears as a direct child of the root, hiding the host path (so a
home directory exposed with ``-d`` never leaks the username), and access
rights per directory can be more restrictive than the invoking user's rights.

Files live entirely in memory (the IOR bandwidth numbers come from the
parallel-filesystem *model*, not from actually writing gigabytes), but the
permission handling, path resolution, directory structure and file descriptor
lifecycle are fully functional and unit-tested.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.wasi.errno import EACCES, EBADF, EINVAL, EISDIR, ENOENT, ENOTCAPABLE, ENOTDIR, WasiError


@dataclass
class VirtualFile:
    """A regular file in the virtual tree."""

    name: str
    data: bytearray = field(default_factory=bytearray)

    @property
    def size(self) -> int:
        """Current size in bytes."""
        return len(self.data)


@dataclass
class VirtualDirectory:
    """A directory in the virtual tree."""

    name: str
    entries: Dict[str, object] = field(default_factory=dict)

    def lookup(self, name: str):
        """Child entry by name (``None`` if absent)."""
        return self.entries.get(name)


@dataclass
class Preopen:
    """A directory granted to the module, with its capability rights."""

    guest_path: str          # how the module sees it, e.g. "/data"
    directory: VirtualDirectory
    read: bool = True
    write: bool = True


@dataclass
class OpenFile:
    """An open file descriptor."""

    fd: int
    file: Optional[VirtualFile]
    directory: Optional[VirtualDirectory]
    readable: bool
    writable: bool
    append: bool = False
    offset: int = 0
    path: str = ""

    @property
    def is_directory(self) -> bool:
        """Whether this descriptor refers to a directory."""
        return self.directory is not None


class VirtualFilesystem:
    """The per-instance virtual filesystem and descriptor table.

    File descriptors 0-2 are reserved for stdio (captured in byte buffers so
    benchmark output can be asserted on); descriptor 3 onwards are pre-opened
    directories followed by files the module opens.
    """

    FIRST_PREOPEN_FD = 3

    def __init__(self) -> None:
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.stdin = bytearray()
        self._preopens: List[Preopen] = []
        self._open: Dict[int, OpenFile] = {}
        self._next_fd = self.FIRST_PREOPEN_FD

    # ---------------------------------------------------------------- preopens

    def preopen(self, guest_path: str, read: bool = True, write: bool = True) -> Preopen:
        """Grant the module access to a directory mounted at ``guest_path``.

        The guest path is always normalised to a single root-level component
        (``/results``), matching MPIWasm's ``-d`` mapping behaviour.
        """
        name = "/" + guest_path.strip("/").split("/")[0] if guest_path.strip("/") else "/"
        directory = VirtualDirectory(name=name.strip("/") or "/")
        pre = Preopen(guest_path=name, directory=directory, read=read, write=write)
        self._preopens.append(pre)
        fd = self._next_fd
        self._next_fd += 1
        self._open[fd] = OpenFile(
            fd=fd, file=None, directory=directory, readable=read, writable=write, path=name
        )
        return pre

    def preopens(self) -> List[Preopen]:
        """All pre-opened directories (in fd order)."""
        return list(self._preopens)

    def preopen_fd(self, index: int) -> int:
        """File descriptor of the ``index``-th preopen."""
        return self.FIRST_PREOPEN_FD + index

    # ------------------------------------------------------------- path helpers

    def _resolve(self, start: VirtualDirectory, path: str, rights: Preopen) -> Tuple[VirtualDirectory, str]:
        """Resolve ``path`` below ``start``; returns (parent_directory, leaf name).

        Rejects absolute escapes and ``..`` traversal above the preopen --
        the capability model of WASI.
        """
        norm = posixpath.normpath(path.lstrip("/"))
        if norm in (".", ""):
            return start, ""
        if norm.startswith(".."):
            raise WasiError(ENOTCAPABLE, f"path {path!r} escapes its capability directory")
        parts = norm.split("/")
        current = start
        for part in parts[:-1]:
            entry = current.lookup(part)
            if entry is None:
                raise WasiError(ENOENT, f"missing directory {part!r} in {path!r}")
            if not isinstance(entry, VirtualDirectory):
                raise WasiError(ENOTDIR, f"{part!r} is not a directory")
            current = entry
        return current, parts[-1]

    def _preopen_for_fd(self, dirfd: int) -> Preopen:
        open_dir = self._open.get(dirfd)
        if open_dir is None or not open_dir.is_directory:
            raise WasiError(EBADF, f"fd {dirfd} is not an open directory")
        for pre in self._preopens:
            if pre.directory is open_dir.directory:
                return pre
        # A subdirectory opened via path_open inherits its preopen's rights.
        return Preopen(guest_path=open_dir.path, directory=open_dir.directory,
                       read=open_dir.readable, write=open_dir.writable)

    # ------------------------------------------------------------------- files

    def path_open(
        self,
        dirfd: int,
        path: str,
        create: bool = False,
        truncate: bool = False,
        append: bool = False,
        read: bool = True,
        write: bool = False,
        directory: bool = False,
    ) -> int:
        """Open (or create) a file below a pre-opened directory; returns the fd."""
        pre = self._preopen_for_fd(dirfd)
        if write and not pre.write:
            raise WasiError(ENOTCAPABLE, f"directory {pre.guest_path} is read-only")
        if read and not pre.read:
            raise WasiError(ENOTCAPABLE, f"directory {pre.guest_path} is not readable")
        parent, leaf = self._resolve(pre.directory, path, pre)
        if leaf == "":
            entry: object = parent
        else:
            entry = parent.lookup(leaf)
        if directory:
            if entry is None and create:
                entry = VirtualDirectory(name=leaf)
                parent.entries[leaf] = entry
            if not isinstance(entry, VirtualDirectory):
                raise WasiError(ENOTDIR, f"{path!r} is not a directory")
            fd = self._next_fd
            self._next_fd += 1
            self._open[fd] = OpenFile(fd=fd, file=None, directory=entry, readable=read,
                                      writable=write, path=path)
            return fd
        if entry is None:
            if not create:
                raise WasiError(ENOENT, f"{path!r} does not exist")
            if not pre.write:
                raise WasiError(ENOTCAPABLE, f"cannot create {path!r} in read-only directory")
            entry = VirtualFile(name=leaf)
            parent.entries[leaf] = entry
        if isinstance(entry, VirtualDirectory):
            raise WasiError(EISDIR, f"{path!r} is a directory")
        if truncate:
            if not write:
                raise WasiError(EINVAL, "truncate requires write access")
            entry.data = bytearray()
        fd = self._next_fd
        self._next_fd += 1
        self._open[fd] = OpenFile(
            fd=fd, file=entry, directory=None, readable=read, writable=write,
            append=append, offset=len(entry.data) if append else 0, path=path,
        )
        return fd

    def _file_fd(self, fd: int) -> OpenFile:
        handle = self._open.get(fd)
        if handle is None:
            raise WasiError(EBADF, f"fd {fd} is not open")
        return handle

    def fd_write(self, fd: int, data: bytes) -> int:
        """Write to a descriptor (stdout/stderr or a regular file)."""
        if fd == 1:
            self.stdout.extend(data)
            return len(data)
        if fd == 2:
            self.stderr.extend(data)
            return len(data)
        handle = self._file_fd(fd)
        if handle.file is None:
            raise WasiError(EISDIR, f"fd {fd} is a directory")
        if not handle.writable:
            raise WasiError(EACCES, f"fd {fd} is not writable")
        if handle.append:
            handle.offset = len(handle.file.data)
        end = handle.offset + len(data)
        if end > len(handle.file.data):
            handle.file.data.extend(bytes(end - len(handle.file.data)))
        handle.file.data[handle.offset : end] = data
        handle.offset = end
        return len(data)

    def fd_read(self, fd: int, nbytes: int) -> bytes:
        """Read from a descriptor (stdin or a regular file)."""
        if fd == 0:
            data = bytes(self.stdin[:nbytes])
            del self.stdin[:nbytes]
            return data
        handle = self._file_fd(fd)
        if handle.file is None:
            raise WasiError(EISDIR, f"fd {fd} is a directory")
        if not handle.readable:
            raise WasiError(EACCES, f"fd {fd} is not readable")
        data = bytes(handle.file.data[handle.offset : handle.offset + nbytes])
        handle.offset += len(data)
        return data

    def fd_seek(self, fd: int, offset: int, whence: int) -> int:
        """Reposition a descriptor; returns the new offset."""
        handle = self._file_fd(fd)
        if handle.file is None:
            raise WasiError(EISDIR, f"fd {fd} is a directory")
        if whence == 0:      # SET
            new = offset
        elif whence == 1:    # CUR
            new = handle.offset + offset
        elif whence == 2:    # END
            new = len(handle.file.data) + offset
        else:
            raise WasiError(EINVAL, f"invalid whence {whence}")
        if new < 0:
            raise WasiError(EINVAL, "seek before start of file")
        handle.offset = new
        return new

    def fd_close(self, fd: int) -> None:
        """Close a descriptor (stdio and preopens cannot be closed)."""
        if fd in (0, 1, 2):
            return
        if fd not in self._open:
            raise WasiError(EBADF, f"fd {fd} is not open")
        if self._open[fd].is_directory and any(
            p.directory is self._open[fd].directory for p in self._preopens
        ):
            raise WasiError(EBADF, f"fd {fd} is a preopened directory")
        del self._open[fd]

    def fd_filesize(self, fd: int) -> int:
        """Size of the file behind ``fd``."""
        handle = self._file_fd(fd)
        if handle.file is None:
            raise WasiError(EISDIR, f"fd {fd} is a directory")
        return handle.file.size

    def unlink(self, dirfd: int, path: str) -> None:
        """Remove a file below a pre-opened directory."""
        pre = self._preopen_for_fd(dirfd)
        if not pre.write:
            raise WasiError(ENOTCAPABLE, f"directory {pre.guest_path} is read-only")
        parent, leaf = self._resolve(pre.directory, path, pre)
        entry = parent.lookup(leaf)
        if entry is None:
            raise WasiError(ENOENT, f"{path!r} does not exist")
        if isinstance(entry, VirtualDirectory):
            raise WasiError(EISDIR, f"{path!r} is a directory")
        del parent.entries[leaf]

    def stdout_text(self) -> str:
        """Captured stdout as text."""
        return self.stdout.decode("utf-8", errors="replace")

    def stderr_text(self) -> str:
        """Captured stderr as text."""
        return self.stderr.decode("utf-8", errors="replace")
