// Command unusedexportmain is the package-main case of the unusedexport
// check: nothing can import a command, so its exports are never reported.
package main

// Exported is referenced by nothing, and that is fine in package main.
func Exported() {}

func main() {}
